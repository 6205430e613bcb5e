package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// priorCase is one transfer-prior input: the donors' unit-cube points,
// z-scores and similarity weights, the prior's scale, and the points it
// is evaluated at.
type priorCase struct {
	us      [][]float64
	zs, ws  []float64
	scale   float64
	queries [][]float64
}

// priorScales are the prior amplitudes the cases draw from: the
// default, non-positive ones that fall back to 1, and others that move
// the clamp.
var priorScales = []float64{1, 0, -1, 0.35, 0.8, 1.7, 4}

// specialCoords are the coordinates gp's kernel must decline (NaN,
// ±Inf) or whose square overflows, so d² is +Inf.
var specialCoords = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -3e160}

// randomPriorCase draws n donors in d dimensions: uniform points, a
// quarter of them at the cube's corners, similarity weights in
// [0.35, 1] with one in eight zero, and normal z-scores. Its queries
// are uniform points, corners, donors themselves (d² = 0), and points
// far enough from a donor that exp(−d²/(2ℓ²)) is subnormal or 0.
func randomPriorCase(rng *rand.Rand, d, n int) priorCase {
	point := func() []float64 {
		p := make([]float64, d)
		corner := rng.Intn(4) == 0
		for j := range p {
			if p[j] = rng.Float64(); corner {
				p[j] = float64(rng.Intn(2))
			}
		}
		return p
	}
	c := priorCase{us: make([][]float64, n), zs: make([]float64, n), ws: make([]float64, n),
		scale: priorScales[rng.Intn(len(priorScales))]}
	for i := range c.us {
		c.us[i] = point()
		c.zs[i] = rng.NormFloat64()
		if rng.Intn(8) != 0 {
			c.ws[i] = 0.35 + 0.65*rng.Float64()
		}
	}
	for q := 0; q < 6; q++ {
		c.queries = append(c.queries, point())
	}
	if n > 0 {
		c.queries = append(c.queries, append([]float64(nil), c.us[rng.Intn(n)]...))
		// d² around 88.5–93.1: exp(−d²/(2ℓ²)) in its subnormal band and
		// just past it, where it underflows to 0.
		far := append([]float64(nil), c.us[rng.Intn(n)]...)
		far[rng.Intn(d)] += 9.4 + 0.3*rng.Float64()
		c.queries = append(c.queries, far)
	}
	return c
}

// withSpecial returns c with one special coordinate placed in a query
// or in a donor.
func (c priorCase) withSpecial(rng *rand.Rand) priorCase {
	v := specialCoords[rng.Intn(len(specialCoords))]
	if len(c.us) == 0 || rng.Intn(2) == 0 {
		q := append([]float64(nil), c.queries[rng.Intn(len(c.queries))]...)
		q[rng.Intn(len(q))] = v
		c.queries = append(c.queries, q)
		return c
	}
	us := append([][]float64(nil), c.us...)
	i := rng.Intn(len(us))
	us[i] = append([]float64(nil), us[i]...)
	us[i][rng.Intn(len(us[i]))] = v
	c.us = us
	return c
}

// scalarTransferPrior is the transfer prior as one scalar loop, the
// closure transferPrior was before it called gp.GaussSums: the oracle.
func scalarTransferPrior(us [][]float64, zs, ws []float64, scale float64) func([]float64) float64 {
	const ell = 0.25
	const shrink = 1.0
	const clampZ = 2.0
	if scale <= 0 {
		scale = 1
	}
	return func(u []float64) float64 {
		var num, den float64
		for i, ui := range us {
			d2 := 0.0
			for j := range u {
				dd := u[j] - ui[j]
				d2 += dd * dd
			}
			k := ws[i] * math.Exp(-d2/(2*ell*ell))
			num += k * zs[i]
			den += k
		}
		v := scale * num / (den + shrink)
		if v > clampZ {
			v = clampZ
		}
		if v < -clampZ {
			v = -clampZ
		}
		return v
	}
}

// priorTally counts, over a test's points, those with some d²/(2ℓ²) NaN
// or ±Inf, which gp's kernel declines to its scalar loop, and the donor
// weights whose exp is subnormal or underflows to 0.
type priorTally struct {
	declined, sub, under int
}

// checkPrior requires that the prior returns the scalar loop's bits at
// every query of c.
func checkPrior(t *testing.T, c priorCase, tally *priorTally) {
	t.Helper()
	got := transferPrior(c.us, c.zs, c.ws, c.scale)
	want := scalarTransferPrior(c.us, c.zs, c.ws, c.scale)
	for qi, u := range c.queries {
		if g, w := got(u), want(u); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("d=%d n=%d scale=%v query %d: m₀ %v (%#x), scalar %v (%#x)",
				len(u), len(c.us), c.scale, qi, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		finite := true
		for _, ui := range c.us {
			d2 := 0.0
			for j := range u {
				dd := u[j] - ui[j]
				d2 += dd * dd
			}
			x := -d2 / (2 * 0.25 * 0.25)
			switch e := math.Exp(x); {
			case math.IsNaN(x) || math.IsInf(x, 0):
				finite = false
			case e == 0:
				tally.under++
			case e < 0x1p-1022:
				tally.sub++
			}
		}
		if !finite {
			tally.declined++
		}
	}
}

// TestTransferPriorMatchesScalar pins the transfer prior to its scalar
// loop bit for bit: 1–70 donors (every tail of one to three lanes, and
// seeds above transferPriorCap, which only a hand-made snapshot holds),
// d from 1 to 51, zero weights, several scales, corner points, and NaN, ±Inf and
// overflowing coordinates, which the kernel must decline.
func TestTransferPriorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var tally priorTally
	for d := 1; d <= 51; d++ {
		for n := 1; n <= 70; n++ {
			if n > 12 && n != 36 && n != 63 && n != 64 && n != 65 && rng.Intn(5) != 0 {
				continue
			}
			c := randomPriorCase(rng, d, n)
			if rng.Intn(4) == 0 {
				c = c.withSpecial(rng)
			}
			checkPrior(t, c, &tally)
		}
	}
	t.Logf("%d points with a NaN or infinite d²; %d donor weights with a subnormal exp and %d with exp = 0",
		tally.declined, tally.sub, tally.under)
	if tally.declined == 0 || tally.sub == 0 || tally.under == 0 {
		t.Fatal("non-finite d², subnormal weights and underflowed weights must each be exercised")
	}
}

// FuzzTransferPrior compares the transfer prior with its scalar loop on
// arbitrary coordinate, weight and z-score bits: the first bytes
// overwrite the first query's coordinates, then the first donor's, then
// the weights and the z-scores, eight bytes each.
func FuzzTransferPrior(f *testing.F) {
	f.Add(uint8(11), uint8(36), int64(1), []byte{}, 1.0)
	f.Add(uint8(51), uint8(63), int64(2), []byte{}, 0.5)
	f.Add(uint8(3), uint8(70), int64(3), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1))), 1.7)
	f.Add(uint8(5), uint8(2), int64(4), binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001), 0.0)
	f.Fuzz(func(t *testing.T, d, n uint8, seed int64, bits []byte, scale float64) {
		rng := rand.New(rand.NewSource(seed))
		c := randomPriorCase(rng, 1+int(d%51), 1+int(n%70))
		c.scale = scale
		var slots []*float64
		for j := range c.queries[0] {
			slots = append(slots, &c.queries[0][j])
		}
		for j := range c.us[0] {
			slots = append(slots, &c.us[0][j])
		}
		for i := range c.ws {
			slots = append(slots, &c.ws[i])
		}
		for i := range c.zs {
			slots = append(slots, &c.zs[i])
		}
		for k := 0; k < len(slots) && 8*k+8 <= len(bits); k++ {
			*slots[k] = math.Float64frombits(binary.LittleEndian.Uint64(bits[8*k:]))
		}
		checkPrior(t, c, &priorTally{})
	})
}

// BenchmarkTransferPrior times one prior evaluation, the closure
// (gp.GaussSums: its four-lane kernel where it runs, the scalar loop
// elsewhere) against the scalar loop, at 36 donors (fleet-durable's
// three donors of twelve trials) and 63, in fleet-durable's 11
// dimensions (the small topology's hints) and in 51.
func BenchmarkTransferPrior(b *testing.B) {
	for _, s := range []struct {
		name string
		d, n int
	}{{"d11n36", 11, 36}, {"d51n36", 51, 36}, {"d11n63", 11, 63}, {"d51n63", 51, 63}} {
		rng := rand.New(rand.NewSource(int64(s.n*100 + s.d)))
		c := randomPriorCase(rng, s.d, s.n)
		queries := make([][]float64, 64)
		for i := range queries {
			queries[i] = make([]float64, s.d)
			for j := range queries[i] {
				queries[i][j] = rng.Float64()
			}
		}
		run := func(prior func([]float64) float64) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				sink := 0.0
				for i := 0; i < b.N; i++ {
					sink += prior(queries[i%len(queries)])
				}
				if math.IsNaN(sink) {
					b.Fatal("NaN prior")
				}
			}
		}
		b.Run("vector/"+s.name, run(transferPrior(c.us, c.zs, c.ws, 1)))
		b.Run("scalar/"+s.name, run(scalarTransferPrior(c.us, c.zs, c.ws, 1)))
	}
}
