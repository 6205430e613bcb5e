package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rowCase is one kernel-row input: a query point, training points and
// the kernel's length scales and amplitude.
type rowCase struct {
	x       []float64
	xs      [][]float64
	lengths []float64
	amp2    float64
}

// specialLengths are degenerate length scales: each sends r to 0, Inf
// or NaN, or (denormal) 1/ℓ to Inf.
var specialLengths = []float64{0, math.Inf(1), math.NaN(), 5e-324, math.Copysign(0, -1), -0.3}

// randomRow draws a row of n points in d dimensions with log-normal
// length scales (log sd 3, so some rows reach r > 708 and the generic
// fallback), duplicates of x among the training points (r = 0), and
// with probability special one degenerate length scale.
func randomRow(rng *rand.Rand, d, n int, special float64) rowCase {
	c := rowCase{x: make([]float64, d), xs: make([][]float64, n), lengths: make([]float64, d), amp2: math.Exp(rng.NormFloat64())}
	for j := range c.x {
		c.x[j] = rng.Float64()
		c.lengths[j] = 0.3 * math.Exp(3*rng.NormFloat64())
	}
	if d > 0 && rng.Float64() < special {
		c.lengths[rng.Intn(d)] = specialLengths[rng.Intn(len(specialLengths))]
	}
	for i := range c.xs {
		if rng.Intn(8) == 0 {
			c.xs[i] = append([]float64(nil), c.x...)
			continue
		}
		c.xs[i] = make([]float64, d)
		for j := range c.xs[i] {
			c.xs[i][j] = rng.Float64()
		}
	}
	return c
}

// generic evaluates the row with the scalar oracle.
func (c rowCase) generic() []float64 {
	dst := make([]float64, len(c.xs))
	maternRowGeneric(c.x, c.xs, invLengths(nil, c.lengths), c.amp2, dst)
	return dst
}

// checkEvalRow requires Matern52.EvalRow to return the oracle's bits.
func checkEvalRow(t *testing.T, c rowCase) {
	t.Helper()
	k := &Matern52{Amp2: c.amp2, Lengths: c.lengths}
	got := make([]float64, len(c.xs))
	k.EvalRow(c.x, c.xs, got)
	for i, w := range c.generic() {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("d=%d n=%d lengths=%v: row[%d] = %v (%#x), generic %v (%#x)",
				len(c.x), len(c.xs), c.lengths, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// TestEvalRowMatchesGeneric pins the dispatching row to the scalar
// oracle bit for bit, on every host: across dimensions on both sides
// of the stack size classes, every n mod 4, extreme and degenerate
// length scales, and r = 0 duplicates.
func TestEvalRowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 129; d++ {
		for n := 0; n <= 70; n += 1 + rng.Intn(4) {
			checkEvalRow(t, randomRow(rng, d, n, 0.2))
		}
	}
	for _, l := range specialLengths {
		c := randomRow(rng, 5, 9, 0)
		c.lengths[2] = l
		checkEvalRow(t, c)
	}
}

// TestEvalRowAllocationFree: a row allocates nothing at the small,
// medium and large topologies' dimensions.
func TestEvalRowAllocationFree(t *testing.T) {
	for _, d := range []int{11, 51, 101} {
		c := randomRow(rand.New(rand.NewSource(int64(d))), d, 13, 0)
		k := &Matern52{Amp2: c.amp2, Lengths: c.lengths}
		dst := make([]float64, len(c.xs))
		if a := testing.AllocsPerRun(100, func() { k.EvalRow(c.x, c.xs, dst) }); a != 0 {
			t.Errorf("d=%d: %v allocations per row", d, a)
		}
	}
}

// FuzzMaternRow compares the dispatching row with the scalar oracle on
// arbitrary length-scale bits (NaN, Inf, denormals, negatives) and
// amplitudes.
func FuzzMaternRow(f *testing.F) {
	f.Add(uint8(11), uint8(60), int64(1), []byte{}, 1.0)
	f.Add(uint8(3), uint8(7), int64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-3)), 0.5)
	f.Add(uint8(51), uint8(12), int64(3), binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001), 2.0)
	f.Fuzz(func(t *testing.T, d, n uint8, seed int64, lengthBits []byte, amp2 float64) {
		rng := rand.New(rand.NewSource(seed))
		c := randomRow(rng, int(d%130), int(n%72), 0)
		c.amp2 = amp2
		for j := 0; j < len(c.lengths) && 8*j+8 <= len(lengthBits); j++ {
			c.lengths[j] = math.Float64frombits(binary.LittleEndian.Uint64(lengthBits[8*j:]))
		}
		checkEvalRow(t, c)
	})
}

// BenchmarkMaternRow times one kernel row through the vector kernel
// (EvalRow, skipped where the kernel is off) and through the scalar
// loop, reciprocal lengths included in both, at the small topology's
// dimension with a 60-point history and at the medium topology's with
// 12 points.
func BenchmarkMaternRow(b *testing.B) {
	for _, s := range []struct {
		name string
		d, n int
	}{{"d11n60", 11, 60}, {"d51n12", 51, 12}} {
		c := randomRow(rand.New(rand.NewSource(1)), s.d, s.n, 0)
		for j := range c.lengths {
			c.lengths[j] = 0.3
		}
		k := &Matern52{Amp2: 1, Lengths: c.lengths}
		dst := make([]float64, s.n)
		b.Run("vector/"+s.name, func(b *testing.B) {
			if !useVectorRow {
				b.Skip("vector kernel row is off on this host")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.EvalRow(c.x, c.xs, dst)
			}
		})
		b.Run("generic/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf [bigStackDims]float64
			for i := 0; i < b.N; i++ {
				maternRowGeneric(c.x, c.xs, invLengths(buf[:0], k.Lengths), k.Amp2, dst)
			}
		})
	}
}

// blockCase is one kernel block: Block candidates against a row of
// training points, with the row's length scales and amplitude.
type blockCase struct {
	cands   [Block][]float64
	xs      [][]float64
	lengths []float64
	amp2    float64
}

// randomBlock draws Block candidates in d dimensions, n training points
// and log-normal length scales as randomRow does; some candidates
// duplicate a training point (r = 0).
func randomBlock(rng *rand.Rand, d, n int) blockCase {
	r := randomRow(rng, d, n, 0)
	c := blockCase{xs: r.xs, lengths: r.lengths, amp2: r.amp2}
	for l := range c.cands {
		if n > 0 && rng.Intn(8) == 0 {
			c.cands[l] = append([]float64(nil), c.xs[rng.Intn(n)]...)
			continue
		}
		c.cands[l] = make([]float64, d)
		for j := range c.cands[l] {
			c.cands[l][j] = rng.Float64()
		}
	}
	return c
}

// BenchmarkMaternBlock times the kernel rows of one full scan block,
// Block candidates against n training points laid out interleaved for
// the wide solve: sixteen EvalRow calls each scattered into the
// interleaved buffer (the per-lane path) against the sixteen-candidate
// block kernel (skipped where the vector kernels are off), at the
// small topology's dimension with 60- and 120-point histories and at
// the medium topology's with 12 points.
func BenchmarkMaternBlock(b *testing.B) {
	for _, s := range []struct {
		name string
		d, n int
	}{{"d11n60", 11, 60}, {"d11n120", 11, 120}, {"d51n12", 51, 12}} {
		c := randomBlock(rand.New(rand.NewSource(1)), s.d, s.n)
		for j := range c.lengths {
			c.lengths[j] = 0.3
		}
		k := &Matern52{Amp2: 1, Lengths: c.lengths}
		kstar := make([]float64, s.n)
		wide := make([]float64, Block*s.n)
		b.Run("lanes/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for l, x := range c.cands {
					k.EvalRow(x, c.xs, kstar)
					for j, v := range kstar {
						wide[j*Block+l] = v
					}
				}
			}
		})
		b.Run("block/"+s.name, func(b *testing.B) {
			if !useVectorRow {
				b.Skip("vector kernels are off on this host")
			}
			b.ReportAllocs()
			inv := invLengths(nil, k.Lengths)
			xt := make([]float64, Block*s.d)
			for i := 0; i < b.N; i++ {
				transposeBlock(&c.cands, xt)
				maternBlockVector(xt, c.xs, inv, k.Amp2, wide)
			}
		})
	}
}
