package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed")
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Fatalf("Add failed")
	}
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 || tr.At(1, 2) != 6 {
		t.Fatalf("transpose wrong: %v", tr)
	}
}

func TestMatrixRowIsView(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatalf("Row must be a view, got %v", m.At(1, 0))
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatalf("Clone aliases original")
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := NewMatrixFrom([][]float64{{19, 22}, {43, 50}})
	if c.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("mul = %v want %v", c, want)
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("mulvec = %v", y)
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {4, 1}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("symmetrize = %v", a)
	}
}

func TestDotNormAXPY(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("dot = %v", Dot(a, b))
	}
	y := CloneVec(b)
	Scale(0.5, y)
	if y[0] != 2 || y[2] != 3 || b[0] != 4 {
		t.Fatalf("scale = %v (clone of %v)", y, b)
	}
}

// randomSPD builds a random symmetric positive-definite matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Mul(b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n)) // ensure well conditioned
	}
	return a
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := ch.L.Mul(ch.L.T())
		if rec.MaxAbsDiff(a) > 1e-8*float64(n) {
			t.Fatalf("n=%d: reconstruction error %g", n, rec.MaxAbsDiff(a))
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 10, 40} {
		a := randomSPD(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := ch.SolveVec(b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-7) {
				t.Fatalf("n=%d: x[%d]=%g want %g", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(4, 9) has det 36.
	a := NewMatrixFrom([][]float64{{4, 0}, {0, 9}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.LogDet(), math.Log(36), 1e-12) {
		t.Fatalf("logdet = %v want %v", ch.LogDet(), math.Log(36))
	}
}

func TestCholeskyJitterOnSemiDefinite(t *testing.T) {
	// Rank-1 matrix: xxᵀ is PSD but singular; jitter must rescue it.
	x := []float64{1, 2, 3}
	a := NewMatrix(3, 3)
	for i := range x {
		for j := range x {
			a.Set(i, j, x[i]*x[j])
		}
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("jitter failed to rescue PSD matrix: %v", err)
	}
	if ch.Jitter == 0 {
		t.Fatalf("expected nonzero jitter")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 0}, {0, -1e6}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatalf("expected failure on strongly indefinite matrix")
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 6)
	b := NewMatrix(6, 2)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveMatrix(b)
	if a.Mul(x).MaxAbsDiff(b) > 1e-8 {
		t.Fatalf("SolveMatrix residual too large")
	}
}

// Property: forward then back solve inverts L Lᵀ multiplication.
func TestQuickCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got := ch.SolveVec(b)
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dim mismatch")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	_ = a.Mul(b)
}
