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
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 101} {
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

// choleskyCase builds an n×n test matrix of one of five kinds, each
// with garbage in its upper triangle, which a factorization must never
// read: 0 SPD; 1 singular PSD (a rank-n/2 Gram matrix), which needs
// jitter escalation; 2 indefinite (SPD less a multiple of the identity),
// failing at some pivot at every jitter; 3 SPD with one NaN in its lower
// triangle or diagonal; 4 SPD with entries scaled by 2^±spread, so that
// products overflow or become subnormal.
func choleskyCase(rng *rand.Rand, n int, kind uint8, spread int) *Matrix {
	var a *Matrix
	switch kind % 5 {
	case 1:
		r := n / 2
		b := make([]float64, r*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		a = NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k < r; k++ {
					s += b[k*n+i] * b[k*n+j]
				}
				a.Data[i*n+j] = s
			}
		}
	default:
		a = randomSPD(rng, n)
	}
	switch kind % 5 {
	case 2:
		c := float64(n) * (0.2 + 0.8*rng.Float64())
		for i := 0; i < n; i++ {
			a.Data[i*n+i] -= c
		}
	case 3:
		if n > 0 {
			i := rng.Intn(n)
			a.Data[i*n+rng.Intn(i+1)] = math.NaN()
		}
	case 4:
		for i := range a.Data {
			a.Data[i] *= math.Ldexp(1, rng.Intn(2*spread+1)-spread)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Data[i*n+j] = rng.NormFloat64() * 1e3
		}
	}
	return a
}

// garbage returns n values of mixed magnitude and sign, NaN among
// them: the prior contents of a reused factor.
func garbage(rng *rand.Rand, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(61)-30)
	}
	if n > 0 {
		g[rng.Intn(n)] = math.NaN()
	}
	return g
}

// checkCholesky factorizes a with the column kernel (on a host with
// AVX2 and n ≥ 15) and with the scalar loop, into garbage-filled
// storage, at zero and non-zero jitter, and requires the same
// accept/decline decision and, on accept, bitwise the same factor. It
// then runs Refactor, jitter escalation included, with the vector
// kernels on and off, and requires the same error, jitter and factor
// bits.
func checkCholesky(t *testing.T, rng *rand.Rand, a *Matrix) {
	t.Helper()
	n := a.Rows
	for _, jitter := range []float64{0, 1e-3} {
		lr := garbage(rng, n*n)
		ok := tryCholeskyRows(a.Data, lr, n, jitter)
		if !HasAVX2FMA() || n < 15 {
			continue
		}
		lc := garbage(rng, n*n)
		if okc := tryCholeskyColumns(a.Data, lc, n, jitter); okc != ok {
			t.Fatalf("n=%d jitter=%g: column kernel accepted=%v, scalar loop %v", n, jitter, okc, ok)
		}
		if ok && !sameBits(lc, lr) {
			for i := range lc {
				if math.Float64bits(lc[i]) != math.Float64bits(lr[i]) {
					t.Fatalf("n=%d jitter=%g: entry (%d,%d) column kernel %v (%#x), scalar %v (%#x)",
						n, jitter, i/max(n, 1), i%max(n, 1), lc[i], math.Float64bits(lc[i]), lr[i], math.Float64bits(lr[i]))
				}
			}
		}
	}
	var fact [2]*Cholesky
	var errs [2]error
	for i, vec := range []bool{true, false} {
		prev := SetVectorSolve(vec)
		fact[i] = &Cholesky{L: &Matrix{Rows: n, Cols: n, Data: garbage(rng, n*n)}}
		errs[i] = fact[i].Refactor(a)
		SetVectorSolve(prev)
	}
	if errs[0] != errs[1] {
		t.Fatalf("n=%d: Refactor with the vector kernels: %v, without: %v", n, errs[0], errs[1])
	}
	if errs[0] != nil {
		if fact[0].L != nil || fact[1].L != nil {
			t.Fatalf("n=%d: a failed Refactor left a factor behind", n)
		}
		return
	}
	if fact[0].Jitter != fact[1].Jitter || !sameBits(fact[0].L.Data, fact[1].L.Data) {
		t.Fatalf("n=%d: Refactor with the vector kernels (jitter %g) differs from without (jitter %g)",
			n, fact[0].Jitter, fact[1].Jitter)
	}
}

// TestCholeskyColumnsMatchRows pins the column kernel's factorization
// to the scalar loop's across sizes on either side of its sixteen-row
// passes and the crossover, for every kind of choleskyCase.
func TestCholeskyColumnsMatchRows(t *testing.T) {
	if !VectorSolve() {
		t.Logf("vector kernels are off on this host (AVX2+FMA %v): only the scalar loop runs", HasAVX2FMA())
	}
	rng := rand.New(rand.NewSource(29))
	var accepted, declined int
	for _, n := range []int{0, 1, 5, 14, 15, 16, 17, 18, 31, 32, 33, 34, 47, 48, 49, 64, 101, 130} {
		for kind := uint8(0); kind < 5; kind++ {
			a := choleskyCase(rng, n, kind, 40)
			checkCholesky(t, rng, a)
			if _, err := NewCholesky(a); err == nil {
				accepted++
			} else {
				declined++
			}
		}
	}
	if accepted == 0 || declined == 0 {
		t.Fatalf("cases must both factor and fail: %d accepted, %d declined", accepted, declined)
	}
}

// TestRefactorIgnoresUpperTriangle: Refactor reads only the diagonal
// and the lower triangle, the part of a kernel matrix the GP's refit
// writes. A matrix whose upper triangle is NaN factors, escalates its
// jitter and fails exactly as the symmetric one does, with bitwise the
// same factor, on the scalar loop and the column kernel alike.
func TestRefactorIgnoresUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 5, 17, 18, 33, 64} {
		for kind := uint8(0); kind < 5; kind++ {
			a := choleskyCase(rng, n, kind, 40)
			upper := a.Clone()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					upper.Set(i, j, math.NaN())
				}
			}
			for _, vec := range []bool{true, false} {
				prev := SetVectorSolve(vec)
				var want, got Cholesky
				errWant, errGot := want.Refactor(a), got.Refactor(upper)
				SetVectorSolve(prev)
				if errWant != errGot {
					t.Fatalf("n=%d kind=%d vector=%v: Refactor of the NaN-upper matrix: %v, symmetric: %v", n, kind, vec, errGot, errWant)
				}
				if errWant != nil {
					continue
				}
				if got.Jitter != want.Jitter || !sameBits(got.L.Data, want.L.Data) {
					t.Fatalf("n=%d kind=%d vector=%v: factor of the NaN-upper matrix (jitter %g) differs from the symmetric one's (jitter %g)",
						n, kind, vec, got.Jitter, want.Jitter)
				}
			}
		}
	}
}

// FuzzCholesky is TestCholeskyColumnsMatchRows over random sizes
// 0..160, seeds, kinds and exponent spreads.
func FuzzCholesky(f *testing.F) {
	f.Add(uint8(60), int64(1), uint8(0), uint8(0))
	f.Add(uint8(33), int64(2), uint8(1), uint8(0))
	f.Add(uint8(48), int64(3), uint8(2), uint8(0))
	f.Add(uint8(17), int64(4), uint8(3), uint8(0))
	f.Add(uint8(40), int64(5), uint8(4), uint8(200))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, kind, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkCholesky(t, rng, choleskyCase(rng, int(n)%161, kind, int(spread)))
	})
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

// TestForwardSolve4MatchesScalar pins the four-lane solve's lane
// contract on Cholesky factors of random SPD matrices, at sizes on
// either side of its four-row panel, with the vector kernel on (where
// the host runs it) and forced off.
func TestForwardSolve4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 257} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		y := randomLanesOf(rng, 4, n, 0)
		checkSolve(t, ch, y, 4)
		prev := SetVectorSolve(false)
		checkSolve(t, ch, y, 4)
		SetVectorSolve(prev)
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
	return randomLanesOf(rng, Lanes, n, spread)
}

// randomLanesOf is randomLanes for any number of lanes.
func randomLanesOf(rng *rand.Rand, lanes, n, spread int) []float64 {
	y := make([]float64, lanes*n)
	for i := range y {
		y[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(2*spread+1)-spread)
	}
	return y
}

// checkSolve solves the interleaved right-hand sides y (lanes 4 or
// Lanes wide) against c through the public solve of that width, through
// its portable loop and, on a host with AVX2, through the assembly
// directly (whether or not the switch has it on), and requires every
// lane of each to be bitwise ForwardSolveInto on that lane — or, where
// the solve overflows into NaN, NaN on the same entries (the NaN's
// payload may differ).
func checkSolve(t *testing.T, c *Cholesky, y []float64, lanes int) {
	t.Helper()
	n := c.L.Rows
	type path struct {
		name  string
		solve func(y []float64)
	}
	paths := []path{
		{"ForwardSolve16Into", c.ForwardSolve16Into},
		{"forwardSolve16Generic", func(y []float64) { forwardSolve16Generic(c.L.Data, y, n) }},
		{"forwardSolve16", func(y []float64) { forwardSolve16(c.L.Data, y, n) }},
	}
	if lanes == 4 {
		quads := func(solve func([][4]float64)) func([]float64) {
			return func(y []float64) {
				q := make([][4]float64, n)
				for k := range q {
					copy(q[k][:], y[4*k:])
				}
				solve(q)
				for k := range q {
					copy(y[4*k:], q[k][:])
				}
			}
		}
		paths = []path{
			{"ForwardSolve4Into", quads(c.ForwardSolve4Into)},
			{"forwardSolve4Generic", quads(func(y [][4]float64) { forwardSolve4Generic(c.L.Data, y, n) })},
			{"forwardSolve4", quads(func(y [][4]float64) { forwardSolve4(c.L.Data, y, n) })},
		}
	}
	if !HasAVX2FMA() {
		paths = paths[:2]
	}
	got := make([][]float64, len(paths))
	for i, p := range paths {
		got[i] = append([]float64(nil), y...)
		p.solve(got[i])
	}
	b := make([]float64, n)
	want := make([]float64, n)
	for q := 0; q < lanes; q++ {
		for k := range b {
			b[k] = y[k*lanes+q]
		}
		c.ForwardSolveInto(want, b)
		for k, w := range want {
			for i, p := range paths {
				if v := got[i][k*lanes+q]; math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
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
		checkSolve(t, ch, y, Lanes)
		prev := SetVectorSolve(false)
		checkSolve(t, ch, y, Lanes)
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
		checkSolve(t, c, randomLanes(rng, c.L.Rows, int(spread)), Lanes)
	})
}

// FuzzForwardSolve4 is FuzzForwardSolve16 for the four-lane solve: the
// assembly's four-row panels, its single-row tail and the portable loop,
// lane by lane against ForwardSolveInto.
func FuzzForwardSolve4(f *testing.F) {
	f.Add(uint16(60), int64(1), uint8(0))
	f.Add(uint16(122), int64(2), uint8(30))
	f.Add(uint16(7), int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomFactor(rng, int(n%301), int(spread))
		checkSolve(t, c, randomLanesOf(rng, 4, c.L.Rows, int(spread)), 4)
	})
}

var solveSink float64

// BenchmarkForwardSolveBlock times sixteen triangular solves against
// one factor, the work of one grid-scan block, at history sizes around
// the exact-GP regime: as four ForwardSolve4Into calls with the vector
// kernels off (lanes4, the portable loop), as the same four calls with
// them on (lanes4vec) and as one ForwardSolve16Into (lanes16). The
// vector cases skip where the kernels are off. Each copies its
// right-hand sides in, so ns/op is per sixteen right-hand sides.
func BenchmarkForwardSolveBlock(b *testing.B) {
	for _, n := range []int{60, 120, 250} {
		rng := rand.New(rand.NewSource(1))
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		rhs := randomLanes(rng, n, 0)
		var four [4][][4]float64
		for g := range four {
			four[g] = make([][4]float64, n)
			for k := range four[g] {
				copy(four[g][k][:], rhs[k*Lanes+4*g:])
			}
		}
		lanes4 := func(b *testing.B) {
			y := make([][4]float64, n)
			for i := 0; i < b.N; i++ {
				for g := range four {
					copy(y, four[g])
					ch.ForwardSolve4Into(y)
				}
			}
			solveSink = y[n-1][3]
		}
		b.Run(fmt.Sprintf("lanes4/n%d", n), func(b *testing.B) {
			defer SetVectorSolve(SetVectorSolve(false))
			lanes4(b)
		})
		b.Run(fmt.Sprintf("lanes4vec/n%d", n), func(b *testing.B) {
			if !VectorSolve() {
				b.Skip("vector kernels are off on this host")
			}
			lanes4(b)
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

// BenchmarkCholeskyRefactor times one same-size Refactor — a slice
// sampling refit's factorization — with the vector kernels off
// (scalar) and on (vector), at sizes on both sides of
// choleskyCrossover and through the exact-GP regime. Below the
// crossover both run the scalar loop.
func BenchmarkCholeskyRefactor(b *testing.B) {
	for _, n := range []int{6, 10, 16, 24, 30, 60, 120, 250} {
		a := randomSPD(rand.New(rand.NewSource(5)), n)
		for _, vec := range []bool{false, true} {
			name := "scalar"
			if vec {
				name = "vector"
			}
			b.Run(fmt.Sprintf("%s/n%d", name, n), func(b *testing.B) {
				if vec && !VectorSolve() {
					b.Skip("vector kernels are off on this host")
				}
				defer SetVectorSolve(SetVectorSolve(vec))
				c := &Cholesky{}
				for i := 0; i < b.N; i++ {
					if err := c.Refactor(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
