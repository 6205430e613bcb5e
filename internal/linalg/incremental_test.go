package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDRidge builds a well-conditioned symmetric positive-definite
// matrix A = BᵀB + ridge·I.
func randomSPDRidge(rng *rand.Rand, n int, ridge float64) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
		a.Add(i, i, ridge)
	}
	return a
}

// leading copies the leading m×m block of a.
func leading(a *Matrix, m int) *Matrix {
	out := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out.Set(i, j, a.At(i, j))
		}
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestCholeskyExtendMatchesFull grows a factor row by row from a 1×1
// block and checks at every size that the result is bit-identical to a
// full factorization, and that solves agree to 1e-10.
func TestCholeskyExtendMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		a := randomSPDRidge(rng, n, 0.5)
		ch, err := NewCholesky(leading(a, 1))
		if err != nil {
			t.Fatalf("trial %d: 1x1 factor: %v", trial, err)
		}
		for m := 2; m <= n; m++ {
			row := make([]float64, m-1)
			for j := 0; j < m-1; j++ {
				row[j] = a.At(m-1, j)
			}
			if err := ch.Extend(row, a.At(m-1, m-1)); err != nil {
				t.Fatalf("trial %d: extend to %d: %v", trial, m, err)
			}
			full, err := NewCholesky(leading(a, m))
			if err != nil {
				t.Fatalf("trial %d: full factor %d: %v", trial, m, err)
			}
			if full.Jitter != ch.Jitter {
				t.Fatalf("trial %d size %d: jitter %g vs %g", trial, m, full.Jitter, ch.Jitter)
			}
			for i, v := range ch.L.Data {
				if v != full.L.Data[i] {
					t.Fatalf("trial %d size %d: factor entry %d differs: %g vs %g",
						trial, m, i, v, full.L.Data[i])
				}
			}
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			if d := maxAbsDiff(ch.SolveVec(b), full.SolveVec(b)); d > 1e-10 {
				t.Fatalf("trial %d size %d: solve diff %g", trial, m, d)
			}
		}
	}
}

// TestCholeskyShrinkRestoresFactor extends a factor by several rows
// and shrinks back, requiring the original factor bit-for-bit — the
// constant-liar retraction contract.
func TestCholeskyShrinkRestoresFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, extra := 8, 3
	a := randomSPDRidge(rng, n+extra, 0.5)
	ch, err := NewCholesky(leading(a, n))
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]float64(nil), ch.L.Data...)
	for m := n; m < n+extra; m++ {
		row := make([]float64, m)
		for j := range row {
			row[j] = a.At(m, j)
		}
		if err := ch.Extend(row, a.At(m, m)); err != nil {
			t.Fatalf("extend to %d: %v", m+1, err)
		}
	}
	if err := ch.Shrink(n); err != nil {
		t.Fatal(err)
	}
	if ch.L.Rows != n || ch.L.Cols != n {
		t.Fatalf("shrink left %dx%d", ch.L.Rows, ch.L.Cols)
	}
	for i, v := range ch.L.Data {
		if v != orig[i] {
			t.Fatalf("entry %d not restored: %g vs %g", i, v, orig[i])
		}
	}
	if err := ch.Shrink(n + 1); err == nil {
		t.Fatal("shrink above current size should fail")
	}
}

// TestCholeskyExtendReusesJitter pins the jitter-consistency bugfix: a
// factor that needed diagonal jitter must apply the same jitter to
// appended rows, agreeing bit-for-bit with a batch factorization at
// that jitter.
func TestCholeskyExtendReusesJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Rank-deficient Gram matrix: 6 points in a 3-dimensional feature
	// space, so the plain factorization must escalate jitter.
	const n, rank = 6, 3
	b := NewMatrix(rank, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < rank; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	ch, err := NewCholesky(leading(a, n-1))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Jitter == 0 {
		t.Fatal("test needs a matrix that forces jitter escalation")
	}
	row := make([]float64, n-1)
	for j := range row {
		row[j] = a.At(n-1, j)
	}
	if err := ch.Extend(row, a.At(n-1, n-1)); err != nil {
		t.Fatalf("extend at recorded jitter: %v", err)
	}
	full, err := NewCholeskyWithJitter(a, ch.Jitter)
	if err != nil {
		t.Fatalf("batch factorization at jitter %g: %v", ch.Jitter, err)
	}
	for i, v := range ch.L.Data {
		if v != full.L.Data[i] {
			t.Fatalf("entry %d: incremental %g vs batch %g", i, v, full.L.Data[i])
		}
	}
}
