package gp

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestVectorRowMatchesGeneric calls the assembly directly: every row
// it accepts is bitwise the scalar oracle, nothing past len(xs) is
// written, and it declines exactly the rows with some r NaN or above
// 708 — never an in-range row, which would silently cost the speedup.
//
// Where the kernel is off it skips, naming the reason, so a vacuous
// pass shows in the test log.
func TestVectorRowMatchesGeneric(t *testing.T) {
	switch {
	case !hasAVX2FMA():
		t.Skip("host lacks AVX2+FMA (or the OS has not enabled YMM state): the vector kernel row is off")
	case !useVectorRow:
		t.Skip("vector kernel row disabled by its init probe (GODEBUG=" + os.Getenv("GODEBUG") + ")")
	}
	rng := rand.New(rand.NewSource(2))
	declined := 0
	for d := 1; d <= 128; d++ {
		for n := 0; n <= 70; n++ {
			if n > 12 && rng.Intn(4) != 0 {
				continue
			}
			c := randomRow(rng, d, n, 0.1)
			inv := invLengths(nil, c.lengths)
			dst := make([]float64, n+4)
			for i := range dst {
				dst[i] = -7
			}
			ok := maternRow4(c.x, inv, c.xs, dst[:n], c.amp2)
			want := c.generic()
			inRange := true
			for _, xi := range c.xs {
				r2 := 0.0
				for j, v := range c.x {
					d := (v - xi[j]) * inv[j]
					r2 += d * d
				}
				if r := math.Sqrt(5 * r2); !(r <= 708) {
					inRange = false
				}
			}
			if ok != inRange {
				t.Fatalf("d=%d n=%d lengths=%v: accepted=%v, every r in range=%v", d, n, c.lengths, ok, inRange)
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
			for i, w := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(w) {
					t.Fatalf("d=%d n=%d lengths=%v: lane %d = %#x, generic %#x", d, n, c.lengths, i, math.Float64bits(dst[i]), math.Float64bits(w))
				}
			}
		}
	}
	if declined == 0 {
		t.Fatal("no row reached the declined-lane fallback")
	}
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
	if !hasAVX2FMA() {
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
