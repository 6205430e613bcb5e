package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oneRowCholesky is the reference factorization the row-blocked
// tryCholesky is pinned against: one sub-diagonal row per pass, each a
// single left-to-right subtraction chain, into a fresh matrix.
func oneRowCholesky(a *Matrix, jitter float64) (*Matrix, bool) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j) + jitter
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, true
}

// sameBits reports whether a and b are bitwise equal element by
// element (so -0 ≠ +0 and NaN payloads count).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockedCholeskyMatchesOneRowOracle pins the row-blocked
// factorization bitwise to the one-row reference across sizes on
// either side of the block width, at zero and non-zero jitter, through
// both a fresh factor and Refactor into reused storage whose old
// contents (upper triangle included) are garbage.
func TestBlockedCholeskyMatchesOneRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 101} {
		a := randomSPD(rng, n)
		for _, jitter := range []float64{0, 1e-6} {
			want, ok := oneRowCholesky(a, jitter)
			if !ok {
				t.Fatalf("n=%d: oracle failed on an SPD matrix", n)
			}
			got, err := NewCholeskyWithJitter(a, jitter)
			if err != nil {
				t.Fatalf("n=%d jitter=%g: %v", n, jitter, err)
			}
			if !sameBits(got.L.Data, want.Data) {
				t.Fatalf("n=%d jitter=%g: blocked factor differs from the one-row oracle", n, jitter)
			}
		}

		want, _ := oneRowCholesky(a, 0)
		reused := &Cholesky{L: NewMatrix(n, n), Jitter: 42}
		for i := range reused.L.Data {
			reused.L.Data[i] = rng.NormFloat64()
		}
		storage := reused.L
		if err := reused.Refactor(a); err != nil {
			t.Fatalf("n=%d: refactor: %v", n, err)
		}
		if reused.L != storage {
			t.Fatalf("n=%d: Refactor did not reuse same-size storage", n)
		}
		if !sameBits(reused.L.Data, want.Data) || reused.Jitter != 0 {
			t.Fatalf("n=%d: reused factor differs from the oracle (jitter %g)", n, reused.Jitter)
		}
	}
}

// TestRefactorMatchesNewCholesky checks Refactor's jitter escalation and
// resizing agree with NewCholesky, and that a failed Refactor leaves no
// factor behind.
func TestRefactorMatchesNewCholesky(t *testing.T) {
	// Rank-1 PSD: needs jitter, like a GP kernel matrix with duplicates.
	v := []float64{1, 2, 3, 4, 5}
	a := NewMatrix(5, 5)
	for i := range v {
		for j := range v {
			a.Set(i, j, v[i]*v[j])
		}
	}
	fresh, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	c := &Cholesky{L: NewMatrix(3, 3)}
	if err := c.Refactor(a); err != nil {
		t.Fatal(err)
	}
	if c.Jitter != fresh.Jitter || fresh.Jitter == 0 || !sameBits(c.L.Data, fresh.L.Data) {
		t.Fatalf("refactor jitter %g vs %g, or factor differs", c.Jitter, fresh.Jitter)
	}

	bad := NewMatrixFrom([][]float64{{1, 0}, {0, -1e6}})
	if err := c.Refactor(bad); err != ErrNotPositiveDefinite {
		t.Fatalf("indefinite refactor: err = %v", err)
	}
	if c.L != nil {
		t.Fatal("failed Refactor left a partial factor behind")
	}
}

// TestForwardSolve4MatchesScalar pins the lane contract: each column of
// a four-wide solve is bitwise a separate ForwardSolveInto.
func TestForwardSolve4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 3, 5, 64, 257} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var b, dst [4][]float64
		for q := range b {
			b[q] = make([]float64, n)
			for i := range b[q] {
				b[q][i] = rng.NormFloat64()
			}
			dst[q] = make([]float64, n)
		}
		ch.ForwardSolve4Into(dst, b)
		for q := range b {
			want := ch.ForwardSolveInto(make([]float64, n), b[q])
			if !sameBits(dst[q], want) {
				t.Fatalf("n=%d lane %d: blocked solve differs from the scalar solve", n, q)
			}
		}
	}
}

// randomFactor returns an n×n lower-triangular factor with a positive
// diagonal (the Cholesky factor of some SPD matrix) whose entries are
// normal draws scaled by 2^e, e uniform in [−spread, spread].
func randomFactor(rng *rand.Rand, n, spread int) *Cholesky {
	scale := func() float64 { return math.Ldexp(1, rng.Intn(2*spread+1)-spread) }
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			l.Data[i*n+k] = rng.NormFloat64() * scale()
		}
		l.Data[i*n+i] = (0.5 + rng.Float64()) * scale()
	}
	return &Cholesky{L: l}
}

// randomLanes returns Lanes interleaved right-hand sides of length n,
// scaled like randomFactor's entries.
func randomLanes(rng *rand.Rand, n, spread int) []float64 {
	y := make([]float64, Lanes*n)
	for i := range y {
		y[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(2*spread+1)-spread)
	}
	return y
}

// checkSolve16 solves the interleaved right-hand sides y against c
// through ForwardSolve16Into, through forwardSolve16Generic and, on a
// host with AVX2, through the assembly directly (whether or not the
// switch has it on), and requires every lane of each to be bitwise
// ForwardSolveInto on that lane — or, where the solve overflows into
// NaN, NaN on the same entries (the NaN's payload may differ).
func checkSolve16(t *testing.T, c *Cholesky, y []float64) {
	t.Helper()
	n := c.L.Rows
	type path struct {
		name string
		y    []float64
	}
	paths := []path{{"ForwardSolve16Into", append([]float64(nil), y...)}, {"forwardSolve16Generic", append([]float64(nil), y...)}}
	c.ForwardSolve16Into(paths[0].y)
	forwardSolve16Generic(c.L.Data, paths[1].y, n)
	if HasAVX2FMA() {
		paths = append(paths, path{"forwardSolve16", append([]float64(nil), y...)})
		forwardSolve16(c.L.Data, paths[2].y, n)
	}
	b := make([]float64, n)
	want := make([]float64, n)
	for q := 0; q < Lanes; q++ {
		for k := range b {
			b[k] = y[k*Lanes+q]
		}
		c.ForwardSolveInto(want, b)
		for k, w := range want {
			for _, p := range paths {
				if v := p.y[k*Lanes+q]; math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("n=%d lane %d entry %d: %s %v (%#x), ForwardSolveInto %v (%#x)",
						n, q, k, p.name, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestForwardSolve16MatchesScalar pins the sixteen-lane solve's lane
// contract on Cholesky factors of random SPD matrices at sizes around
// the exact-GP regime, with the vector kernel on (where the host runs
// it) and forced off.
func TestForwardSolve16MatchesScalar(t *testing.T) {
	if !VectorSolve() {
		t.Logf("vector forward solve is off on this host (AVX2+FMA %v): only the portable loop is checked", HasAVX2FMA())
	}
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 3, 5, 16, 64, 257} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		y := randomLanes(rng, n, 0)
		checkSolve16(t, ch, y)
		prev := SetVectorSolve(false)
		checkSolve16(t, ch, y)
		SetVectorSolve(prev)
	}
}

// TestVectorSolveSwitch: the init probe keeps the vector solve on
// wherever the host has AVX2+FMA (a kernel that fails it would
// otherwise switch itself off in silence, GODEBUG=cpu.fma=off
// included), and SetVectorSolve turns the kernel off and back on only
// where it passed its init checks.
func TestVectorSolveSwitch(t *testing.T) {
	if HasAVX2FMA() && !vectorSolveOK {
		t.Fatal("the init probe turned the vector forward solve off on an AVX2+FMA host")
	}
	on := VectorSolve()
	if on != vectorSolveOK {
		t.Fatalf("VectorSolve() = %v at start, init checks passed = %v", on, vectorSolveOK)
	}
	if prev := SetVectorSolve(false); prev != on || VectorSolve() {
		t.Fatalf("SetVectorSolve(false): prev %v (want %v), now %v", prev, on, VectorSolve())
	}
	if SetVectorSolve(true); VectorSolve() != vectorSolveOK {
		t.Fatalf("SetVectorSolve(true) left the kernel on=%v where the init checks passed=%v", VectorSolve(), vectorSolveOK)
	}
}

// FuzzForwardSolve16 pins the assembly solve (on AVX2 hosts) and the
// portable loop lane by lane against ForwardSolveInto on random factors of size
// 0..300 whose entries and right-hand sides span 2^±spread, so that
// large spreads overflow into Inf and NaN.
func FuzzForwardSolve16(f *testing.F) {
	f.Add(uint16(60), int64(1), uint8(0))
	f.Add(uint16(257), int64(2), uint8(30))
	f.Add(uint16(7), int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomFactor(rng, int(n%301), int(spread))
		checkSolve16(t, c, randomLanes(rng, c.L.Rows, int(spread)))
	})
}

var solveSink float64

// BenchmarkForwardSolveBlock times sixteen triangular solves against
// one factor, the work of one grid-scan block: as four four-lane
// ForwardSolve4Into calls (lanes4) and as one ForwardSolve16Into
// (lanes16, skipped where the vector kernel is off), at history sizes
// around the exact-GP regime. Both copy their right-hand sides in, so
// ns/op is per sixteen right-hand sides either way.
func BenchmarkForwardSolveBlock(b *testing.B) {
	for _, n := range []int{60, 120, 250} {
		rng := rand.New(rand.NewSource(1))
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		rhs := randomLanes(rng, n, 0)
		b.Run(fmt.Sprintf("lanes4/n%d", n), func(b *testing.B) {
			var in, dst [4][4][]float64
			for g := range in {
				for q := range in[g] {
					in[g][q] = make([]float64, n)
					for k := range in[g][q] {
						in[g][q][k] = rhs[k*Lanes+4*g+q]
					}
					dst[g][q] = make([]float64, n)
				}
			}
			for i := 0; i < b.N; i++ {
				for g := range in {
					ch.ForwardSolve4Into(dst[g], in[g])
				}
			}
			solveSink = dst[3][3][n-1]
		})
		b.Run(fmt.Sprintf("lanes16/n%d", n), func(b *testing.B) {
			if !VectorSolve() {
				b.Skip("vector forward solve is off on this host")
			}
			y := make([]float64, len(rhs))
			for i := 0; i < b.N; i++ {
				copy(y, rhs)
				ch.ForwardSolve16Into(y)
			}
			solveSink = y[len(y)-1]
		})
	}
}
