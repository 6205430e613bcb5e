package bo

// TrustRegion confines an optimizer's proposals to an axis-aligned box
// around an incumbent in the unit cube — ContTune's conservative
// online search: a retune session starts from the running incumbent
// and only ever proposes configurations close to it, so a live system
// being retuned never regresses far. The region adapts as results
// arrive (the Big/Small phases): it widens by trustGrow after
// trustGrowAfter consecutive improvements and shrinks by trustShrink
// on any regression, recentering on each new best.
//
// Mutation happens exclusively in Observe, so a session replaying its
// ask/tell log reproduces the center/radius trajectory — trust-region
// retunes snapshot and resume bit-identically like any other session.
// Not safe for concurrent use; the Optimizer it is attached to is not
// either.
type TrustRegion struct {
	// Center is the box center in unit-cube coordinates (the encoded
	// incumbent).
	Center []float64
	// Radius is the per-coordinate half-width. RadiusMin/RadiusMax
	// bound adaptation (defaults 0.02 and 0.5).
	Radius    float64
	RadiusMin float64
	RadiusMax float64

	bestY    float64
	haveBase bool
	streak   int
}

// The Big/Small adaptation, fixed.
const (
	trustGrow      = 1.6 // radius factor after trustGrowAfter improvements in a row
	trustShrink    = 0.5 // radius factor on any non-improvement
	trustGrowAfter = 2
)

func (t *TrustRegion) radiusMin() float64 {
	if t.RadiusMin <= 0 {
		return 0.02
	}
	return t.RadiusMin
}

func (t *TrustRegion) radiusMax() float64 {
	if t.RadiusMax <= 0 {
		return 0.5
	}
	return t.RadiusMax
}

// Baseline sets the objective value new observations must beat to
// count as improvements — the incumbent's measured performance. Call
// it once before attaching the region; warm-start observations fed to
// the optimizer beforehand do not walk the region.
func (t *TrustRegion) Baseline(y float64) {
	t.bestY = y
	t.haveBase = true
	t.streak = 0
}

// Best returns the best objective the region has seen (its Baseline
// until an observation improves on it); ok is false before Baseline.
func (t *TrustRegion) Best() (y float64, ok bool) { return t.bestY, t.haveBase }

// Observe adapts the region to one completed evaluation: an
// improvement recenters the box on the improving point and extends the
// streak (widening by trustGrow once it reaches trustGrowAfter);
// anything else resets the streak and shrinks by trustShrink.
func (t *TrustRegion) Observe(u []float64, y float64) {
	if !t.haveBase {
		t.Baseline(y)
		t.Center = append([]float64(nil), u...)
		return
	}
	if y > t.bestY {
		t.bestY = y
		t.Center = append([]float64(nil), u...)
		t.streak++
		if t.streak >= trustGrowAfter {
			t.streak = 0
			t.Radius *= trustGrow
			if max := t.radiusMax(); t.Radius > max {
				t.Radius = max
			}
		}
		return
	}
	t.streak = 0
	t.Radius *= trustShrink
	if min := t.radiusMin(); t.Radius < min {
		t.Radius = min
	}
}

// Clamp confines a unit-cube point into the region's box (intersected
// with the unit cube), returning a new slice. With no center set it
// only clamps to [0, 1].
func (t *TrustRegion) Clamp(u []float64) []float64 {
	out := make([]float64, len(u))
	for i, v := range u {
		if i < len(t.Center) {
			lo, hi := t.Center[i]-t.Radius, t.Center[i]+t.Radius
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
		}
		out[i] = clamp01(v)
	}
	return out
}

// Contains reports whether u lies inside the region's box (with a
// small tolerance for clamping arithmetic).
func (t *TrustRegion) Contains(u []float64) bool {
	const eps = 1e-9
	for i, v := range u {
		if i >= len(t.Center) {
			break
		}
		if v < t.Center[i]-t.Radius-eps || v > t.Center[i]+t.Radius+eps {
			return false
		}
	}
	return true
}
