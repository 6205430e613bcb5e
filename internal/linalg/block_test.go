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

var solveSink float64

// BenchmarkForwardSolve4 times four triangular solves against one
// factor: interleaved (ForwardSolve4Into) vs one at a time
// (ForwardSolveInto), at history sizes around the exact-GP regime.
func BenchmarkForwardSolve4(b *testing.B) {
	for _, n := range []int{60, 120, 250} {
		rng := rand.New(rand.NewSource(1))
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		var rhs, dst [4][]float64
		for q := range rhs {
			rhs[q] = make([]float64, n)
			for i := range rhs[q] {
				rhs[q][i] = rng.NormFloat64()
			}
			dst[q] = make([]float64, n)
		}
		b.Run(fmt.Sprintf("blocked/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch.ForwardSolve4Into(dst, rhs)
			}
			solveSink = dst[3][n-1]
		})
		b.Run(fmt.Sprintf("scalar/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for q := range rhs {
					ch.ForwardSolveInto(dst[q], rhs[q])
				}
			}
			solveSink = dst[3][n-1]
		})
	}
}
