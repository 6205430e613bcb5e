package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"stormtune/internal/linalg"
)

// setVectorRow switches the exp kernels on or off and returns the
// previous setting; tests restore it with
// defer setVectorRow(setVectorRow(false)).
func setVectorRow(on bool) (was bool) {
	was, useVectorRow = useVectorRow, on
	return was
}

// skipWithoutVectorRow skips where the vector kernels are off, naming
// the reason, so a vacuous pass shows in the test log.
func skipWithoutVectorRow(t *testing.T) {
	t.Helper()
	switch {
	case !linalg.HasAVX2FMA():
		t.Skip("host lacks AVX2+FMA (or the OS has not enabled YMM state): the vector kernels are off")
	case !useVectorRow:
		t.Skip("vector kernels disabled by their init probe (GODEBUG=" + os.Getenv("GODEBUG") + ")")
	}
}

// rowDistances returns r = √(5·Σ_j ((x_j − xi_j)·inv_j)²) for every xi
// in xs, in the scalar loop's arithmetic.
func rowDistances(x []float64, xs [][]float64, inv []float64) []float64 {
	rs := make([]float64, len(xs))
	for i, xi := range xs {
		r2 := 0.0
		for j, v := range x {
			d := (v - xi[j]) * inv[j]
			r2 += d * d
		}
		rs[i] = math.Sqrt(5 * r2)
	}
	return rs
}

// finiteDistances reports whether no r is NaN or +Inf: exactly the
// rows and blocks the vector kernels must accept.
func finiteDistances(rs []float64) bool {
	for _, r := range rs {
		if math.IsNaN(r) || math.IsInf(r, 1) {
			return false
		}
	}
	return true
}

// TestVectorRowMatchesGeneric calls the assembly directly: every row
// it accepts is bitwise the scalar oracle, nothing past len(xs) is
// written, and it declines exactly the rows with some r NaN or +Inf —
// never a finite row, which would silently cost the speedup. A quarter
// of the rows have length scales that put r around exp's subnormal
// band, so accepted rows must include lanes with a subnormal exp(−r)
// and lanes where it underflows to +0.
func TestVectorRowMatchesGeneric(t *testing.T) {
	skipWithoutVectorRow(t)
	rng := rand.New(rand.NewSource(2))
	var declined, sub, under int
	for d := 1; d <= 128; d++ {
		for n := 0; n <= 70; n++ {
			if n > 12 && rng.Intn(4) != 0 {
				continue
			}
			c := randomRow(rng, d, n, 0.1)
			if rng.Intn(4) == 0 {
				tailLengths(rng, c.lengths)
			}
			inv := invLengths(nil, c.lengths)
			dst := make([]float64, n+4)
			for i := range dst {
				dst[i] = -7
			}
			ok := maternRow4(c.x, inv, c.xs, dst[:n], c.amp2)
			rs := rowDistances(c.x, c.xs, inv)
			if want := finiteDistances(rs); ok != want {
				t.Fatalf("d=%d n=%d lengths=%v: accepted=%v, every r finite=%v", d, n, c.lengths, ok, want)
			}
			for i := n; i < len(dst); i++ {
				if dst[i] != -7 {
					t.Fatalf("d=%d n=%d: wrote dst[%d] past the row", d, n, i)
				}
			}
			if !ok {
				declined++
				continue
			}
			for i, w := range c.generic() {
				if math.Float64bits(dst[i]) != math.Float64bits(w) {
					t.Fatalf("d=%d n=%d lengths=%v: lane %d = %#x, generic %#x", d, n, c.lengths, i, math.Float64bits(dst[i]), math.Float64bits(w))
				}
			}
			s, u := expTails(rs)
			sub, under = sub+s, under+u
		}
	}
	t.Logf("%d declined rows; accepted, %d lanes with a subnormal exp(−r) and %d with exp(−r) = 0", declined, sub, under)
	if declined == 0 || sub == 0 || under == 0 {
		t.Fatal("each of the three must be exercised")
	}
}

// expTails counts the finite r whose exp(−r) is subnormal (r in about
// (708.4, 745.1]) and those where it underflows to +0: the branches of
// math.Exp's ldexp tail beyond a normal result.
func expTails(rs []float64) (sub, under int) {
	for _, r := range rs {
		switch e := math.Exp(-r); {
		case e == 0:
			under++
		case e < 0x1p-1022:
			sub++
		}
	}
	return sub, under
}

// tailLengths sets every length scale so that a pair of uniform
// points lies about r ≈ 730 apart, with a log-normal spread: lanes then
// fall on both sides of the band where exp(−r) is subnormal, and in it.
func tailLengths(rng *rand.Rand, lengths []float64) {
	for j := range lengths {
		lengths[j] = 1.25e-3 * math.Sqrt(float64(len(lengths))) * math.Exp(0.4*rng.NormFloat64())
	}
}

// checkBlock calls the block kernel on c and requires that it declines
// exactly when some lane's r is NaN or +Inf, writes nothing past
// Block·n, and otherwise stores in lane l at k·Block+l the bits
// maternRowGeneric returns for candidate l. It reports whether the
// block was accepted.
func checkBlock(t *testing.T, c blockCase) bool {
	t.Helper()
	d, n := len(c.lengths), len(c.xs)
	inv := invLengths(nil, c.lengths)
	finite := true
	for _, x := range c.cands {
		finite = finite && finiteDistances(rowDistances(x, c.xs, inv))
	}
	xt := make([]float64, Block*d)
	dst := make([]float64, Block*n+Block)
	for i := range dst {
		dst[i] = -7
	}
	ok := transposeLanes(c.cands[:], xt, Block) && maternBlockVector(xt, c.xs, inv, c.amp2, dst[:Block*n])
	if ok != finite {
		t.Fatalf("d=%d n=%d lengths=%v: accepted=%v, every r finite=%v", d, n, c.lengths, ok, finite)
	}
	for i := Block * n; i < len(dst); i++ {
		if dst[i] != -7 {
			t.Fatalf("d=%d n=%d: wrote dst[%d] past the block", d, n, i)
		}
	}
	if !ok {
		return false
	}
	want := make([]float64, n)
	for l, x := range c.cands {
		maternRowGeneric(x, c.xs, inv, c.amp2, want)
		for k, w := range want {
			if got := dst[k*Block+l]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("d=%d n=%d lengths=%v: lane %d point %d = %v (%#x), generic %v (%#x)",
					d, n, c.lengths, l, k, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
	}
	return true
}

// TestVectorBlockMatchesGeneric sweeps the sixteen-candidate block
// kernel across dimensions 1..128 and histories 0..70: log-normal
// length scales, rows set to put r in exp's subnormal and underflow
// bands, and degenerate length scales. Every accepted block is bitwise
// the scalar rows, and only NaN or +Inf r declines.
func TestVectorBlockMatchesGeneric(t *testing.T) {
	skipWithoutVectorRow(t)
	rng := rand.New(rand.NewSource(3))
	var declined, sub, under int
	for d := 1; d <= 128; d++ {
		for n := 0; n <= 70; n++ {
			if n > 8 && rng.Intn(6) != 0 {
				continue
			}
			c := randomBlock(rng, d, n)
			switch rng.Intn(4) {
			case 0:
				tailLengths(rng, c.lengths)
			case 1:
				c.lengths[rng.Intn(d)] = specialLengths[rng.Intn(len(specialLengths))]
			}
			if !checkBlock(t, c) {
				declined++
				continue
			}
			inv := invLengths(nil, c.lengths)
			for _, x := range c.cands {
				s, u := expTails(rowDistances(x, c.xs, inv))
				sub, under = sub+s, under+u
			}
		}
	}
	t.Logf("%d declined blocks; accepted, %d lanes with a subnormal exp(−r) and %d with exp(−r) = 0", declined, sub, under)
	if declined == 0 || sub == 0 || under == 0 {
		t.Fatal("each of the three must be exercised")
	}
}

// FuzzMaternBlock compares the block kernel with the scalar oracle on
// arbitrary length-scale bits (NaN, Inf, zero, denormals, negatives)
// and amplitudes; tails sets the length scales around exp's subnormal
// and underflow bands before the bits are applied.
func FuzzMaternBlock(f *testing.F) {
	f.Add(uint8(11), uint8(60), int64(1), []byte{}, 1.0, false)
	f.Add(uint8(11), uint8(60), int64(4), []byte{}, 1.3, true)
	f.Add(uint8(3), uint8(7), int64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-3)), 0.5, false)
	f.Add(uint8(51), uint8(12), int64(3), binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001), 2.0, true)
	f.Fuzz(func(t *testing.T, d, n uint8, seed int64, lengthBits []byte, amp2 float64, tails bool) {
		skipWithoutVectorRow(t)
		rng := rand.New(rand.NewSource(seed))
		c := randomBlock(rng, int(d%130), int(n%72))
		c.amp2 = amp2
		if tails {
			tailLengths(rng, c.lengths)
		}
		for j := 0; j < len(c.lengths) && 8*j+8 <= len(lengthBits); j++ {
			c.lengths[j] = math.Float64frombits(binary.LittleEndian.Uint64(lengthBits[8*j:]))
		}
		checkBlock(t, c)
	})
}

// checkBlock4 calls the four-candidate kernel on the first m of c's
// candidates, transposed with the spare lanes repeating the last, and
// requires that it declines exactly when some real lane's r is NaN or
// +Inf, writes nothing past dst[n−1], and otherwise stores in lane q of
// dst[k] the bits maternRowGeneric returns for candidate min(q, m−1).
// It reports whether the block was accepted.
func checkBlock4(t *testing.T, c blockCase, m int) bool {
	t.Helper()
	d, n := len(c.lengths), len(c.xs)
	inv := invLengths(nil, c.lengths)
	cands := c.cands[:m]
	finite := true
	for _, x := range cands {
		finite = finite && finiteDistances(rowDistances(x, c.xs, inv))
	}
	xt := make([]float64, 4*d)
	dst := make([][4]float64, n+1)
	for k := range dst {
		dst[k] = [4]float64{-7, -7, -7, -7}
	}
	ok := transposeLanes(cands, xt, 4) && maternBlock4Vector(xt, c.xs, inv, c.amp2, dst[:n])
	if ok != finite {
		t.Fatalf("d=%d n=%d m=%d lengths=%v: accepted=%v, every r finite=%v", d, n, m, c.lengths, ok, finite)
	}
	if dst[n] != [4]float64{-7, -7, -7, -7} {
		t.Fatalf("d=%d n=%d m=%d: wrote %v past the block", d, n, m, dst[n])
	}
	if !ok {
		return false
	}
	want := make([]float64, n)
	for q := 0; q < 4; q++ {
		maternRowGeneric(cands[min(q, m-1)], c.xs, inv, c.amp2, want)
		for k, w := range want {
			if got := dst[k][q]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("d=%d n=%d m=%d lengths=%v: lane %d point %d = %v (%#x), generic %v (%#x)",
					d, n, m, c.lengths, q, k, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
	}
	return true
}

// TestVectorBlock4MatchesGeneric sweeps the four-candidate block
// kernel across dimensions 1..128, histories 0..70 (every n mod 4, so
// the one-point remainder loop runs after zero to many four-point
// passes) and one to four real lanes: log-normal length scales, rows
// set to put r in exp's subnormal and underflow bands, and degenerate
// length scales. Every accepted block is bitwise the scalar rows, and
// only NaN or +Inf r declines.
func TestVectorBlock4MatchesGeneric(t *testing.T) {
	skipWithoutVectorRow(t)
	rng := rand.New(rand.NewSource(5))
	var declined, sub, under int
	for d := 1; d <= 128; d++ {
		for n := 0; n <= 70; n++ {
			if n > 12 && rng.Intn(6) != 0 {
				continue
			}
			c := randomBlock(rng, d, n)
			switch rng.Intn(4) {
			case 0:
				tailLengths(rng, c.lengths)
			case 1:
				c.lengths[rng.Intn(d)] = specialLengths[rng.Intn(len(specialLengths))]
			}
			m := 1 + rng.Intn(4)
			if !checkBlock4(t, c, m) {
				declined++
				continue
			}
			inv := invLengths(nil, c.lengths)
			for _, x := range c.cands[:m] {
				s, u := expTails(rowDistances(x, c.xs, inv))
				sub, under = sub+s, under+u
			}
		}
	}
	t.Logf("%d declined blocks; accepted, %d lanes with a subnormal exp(−r) and %d with exp(−r) = 0", declined, sub, under)
	if declined == 0 || sub == 0 || under == 0 {
		t.Fatal("each of the three must be exercised")
	}
}

// FuzzMaternBlock4 is FuzzMaternBlock for the four-candidate kernel,
// with one to four real lanes.
func FuzzMaternBlock4(f *testing.F) {
	f.Add(uint8(11), uint8(60), uint8(4), int64(1), []byte{}, 1.0, false)
	f.Add(uint8(11), uint8(61), uint8(3), int64(4), []byte{}, 1.3, true)
	f.Add(uint8(3), uint8(7), uint8(1), int64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-3)), 0.5, false)
	f.Add(uint8(51), uint8(14), uint8(2), int64(3), binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001), 2.0, true)
	f.Fuzz(func(t *testing.T, d, n, m uint8, seed int64, lengthBits []byte, amp2 float64, tails bool) {
		skipWithoutVectorRow(t)
		rng := rand.New(rand.NewSource(seed))
		c := randomBlock(rng, int(d%130), int(n%72))
		c.amp2 = amp2
		if tails {
			tailLengths(rng, c.lengths)
		}
		for j := 0; j < len(c.lengths) && 8*j+8 <= len(lengthBits); j++ {
			c.lengths[j] = math.Float64frombits(binary.LittleEndian.Uint64(lengthBits[8*j:]))
		}
		checkBlock4(t, c, 1+int(m%4))
	})
}

// expFMA is the FMA branch of math.archExp (math/exp_amd64.s) for x in
// [−708, 0], written with math.FMA: the sequence the vector kernel's
// exp mirrors lane by lane.
func expFMA(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(log2e * x)
	z := math.FMA(-k, ln2u, x)
	z = math.FMA(-k, ln2l, z)
	z *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = math.FMA(p, z, c)
	}
	z *= p
	for i := 0; i < 3; i++ {
		z *= z + 2
	}
	z = math.FMA(z+2, z, 1)
	return z * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// mathExpFused reports whether math.Exp takes its FMA branch: whether
// it agrees with expFMA across [−10, 0], where the FMA and non-FMA
// sequences disagree on about one argument in eleven.
func mathExpFused() bool {
	for i := 0; i <= 1000; i++ {
		x := -0.01 * float64(i)
		if math.Float64bits(math.Exp(x)) != math.Float64bits(expFMA(x)) {
			return false
		}
	}
	return true
}

// TestVectorRowFollowsMathExp: the vector kernel is on exactly when
// math.Exp takes its FMA branch, whose results its exp reproduces. Run
// without GODEBUG=cpu.fma=off, the test re-runs itself in a child
// process with that setting, where the init probe must turn the kernel
// off — unless the build's GOAMD64 level makes FMA baseline, when the
// runtime ignores the setting and math.Exp stays fused.
func TestVectorRowFollowsMathExp(t *testing.T) {
	if !linalg.HasAVX2FMA() {
		t.Skip("host lacks AVX2+FMA: the vector kernel row is off regardless")
	}
	fused := mathExpFused()
	if useVectorRow != fused {
		t.Fatalf("vector kernel row on=%v, but math.Exp fused=%v", useVectorRow, fused)
	}
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "cpu.fma=off") {
		if fused {
			t.Skip("GODEBUG=cpu.fma=off has no effect in this build (GOAMD64 >= v3): math.Exp stays fused")
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestVectorRowFollowsMathExp$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(godebug+",cpu.fma=off", ","))
	out, err := cmd.CombinedOutput()
	switch {
	case err != nil:
		t.Fatalf("child with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	case strings.Contains(string(out), "--- SKIP"):
		t.Skipf("child with GODEBUG=cpu.fma=off skipped:\n%s", out)
	case !strings.Contains(string(out), "--- PASS"):
		t.Fatalf("child with GODEBUG=cpu.fma=off did not run the test:\n%s", out)
	}
}

// TestGaussSumsMatchesGeneric calls the Gaussian-sums kernel through
// gaussSumsVector at several scales c. The sums it accepts are bitwise
// gaussSumsGeneric's, and with one z at a time set to 1 (num is then
// one point's weight k exactly) so is every point's weight, whichever
// lane of whichever group it falls in. It declines exactly the rows
// with some d²/c NaN or +Inf (non-finite or huge coordinates) and every
// c that is not positive, and GaussSums then returns the generic sums.
// Some queries sit far enough from the points that a weight is
// subnormal or 0.
func TestGaussSumsMatchesGeneric(t *testing.T) {
	skipWithoutVectorRow(t)
	rng := rand.New(rand.NewSource(4))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var declined, sub, under int
	for d := 1; d <= 64; d++ {
		for n := 0; n <= 70; n++ {
			if n > 12 && rng.Intn(4) != 0 {
				continue
			}
			c := []float64{0.125, 0.3, 1e-3, 7}[rng.Intn(4)]
			x := make([]float64, d)
			for j := range x {
				x[j] = rng.Float64()
			}
			if rng.Intn(4) == 0 {
				x[0] += math.Sqrt(710*c) * (1 + 0.03*rng.NormFloat64())
			}
			xs := make([][]float64, n)
			w := make([]float64, n)
			z := make([]float64, n)
			for i := range xs {
				xs[i] = make([]float64, d)
				for j := range xs[i] {
					xs[i][j] = rng.Float64()
				}
				w[i] = rng.Float64()
				z[i] = rng.NormFloat64()
			}
			if n > 0 && rng.Intn(6) == 0 {
				xs[rng.Intn(n)][rng.Intn(d)] = special[rng.Intn(len(special))]
			}
			finite := true
			for _, xi := range xs {
				d2 := 0.0
				for j, v := range x {
					dd := v - xi[j]
					d2 += dd * dd
				}
				r := d2 / c
				finite = finite && !math.IsNaN(r) && !math.IsInf(r, 1)
			}
			num, den, ok := gaussSumsVector(x, xs, w, z, c)
			if ok != finite {
				t.Fatalf("d=%d n=%d c=%v: accepted=%v, every d²/c finite=%v", d, n, c, ok, finite)
			}
			wantNum, wantDen := gaussSumsGeneric(x, xs, w, z, c)
			if !ok {
				declined++
				num, den = GaussSums(x, xs, w, z, c)
			}
			if !bits(num, wantNum) || !bits(den, wantDen) {
				t.Fatalf("d=%d n=%d c=%v accepted=%v: sums %#x, %#x; generic %#x, %#x", d, n, c, ok,
					math.Float64bits(num), math.Float64bits(den), math.Float64bits(wantNum), math.Float64bits(wantDen))
			}
			if !ok {
				continue
			}
			hot := make([]float64, n)
			for i := range hot {
				hot[i] = 1
				k, _, _ := gaussSumsVector(x, xs, w, hot, c)
				want, _ := gaussSumsGeneric(x, xs[i:i+1], w[i:i+1], hot[i:i+1], c)
				if !bits(k, want) {
					t.Fatalf("d=%d n=%d c=%v: weight %d = %v (%#x), generic %v (%#x)", d, n, c, i, k, math.Float64bits(k), want, math.Float64bits(want))
				}
				switch {
				case k == 0 && w[i] != 0:
					under++
				case k != 0 && math.Abs(k) < 0x1p-1022:
					sub++
				}
				hot[i] = 0
			}
		}
	}
	t.Logf("%d declined rows; accepted, %d subnormal weights and %d underflowed to 0", declined, sub, under)
	if declined == 0 || sub == 0 || under == 0 {
		t.Fatal("each of the three must be exercised")
	}
	one := [][]float64{{0.5}}
	for _, c := range []float64{0, math.Copysign(0, -1), -0.125, math.NaN()} {
		if _, _, ok := gaussSumsVector([]float64{0.25}, one, []float64{1}, []float64{1}, c); ok {
			t.Errorf("c=%v: accepted, want declined", c)
		}
	}
}
