package gp

import (
	"math"
	"math/rand"
)

// hyperPrior is a weak log-normal prior over the log-space
// hyperparameters keeping length scales, amplitude and noise in sane
// ranges for unit-cube inputs. Without it the sampler can wander to
// degenerate kernels when few observations exist.
func hyperPrior(h []float64) float64 {
	lp := 0.0
	for _, v := range h {
		// N(log 0.3 ≈ -1.2, sd 2.5) keeps values within a few orders of
		// magnitude of O(1).
		d := (v + 1.2) / 2.5
		lp += -0.5 * d * d
	}
	return lp
}

// logPosterior evaluates log p(θ) + log p(y|x,θ), refitting the GP.
// Returns -Inf when the kernel matrix is not factorizable.
func (g *GP) logPosterior(h []float64) float64 {
	if err := g.setHypers(h); err != nil {
		return math.Inf(-1)
	}
	ll := g.LogMarginalLikelihood()
	if math.IsNaN(ll) {
		return math.Inf(-1)
	}
	return ll + hyperPrior(h)
}

// SliceSampleHypers draws nSamples hyperparameter vectors from the
// posterior over (kernel hypers, noise) using univariate slice sampling
// with stepping out (Neal 2003), the scheme Spearmint uses. The GP is
// left fitted at the last sample. Returned samples are log-space
// vectors suitable for setHypers.
func (g *GP) SliceSampleHypers(rng *rand.Rand, nSamples, burn int) [][]float64 {
	cur := g.hypers()
	curLP := g.logPosterior(cur)
	if math.IsInf(curLP, -1) {
		// Reset to a safe default before sampling.
		for i := range cur {
			cur[i] = math.Log(0.3)
		}
		curLP = g.logPosterior(cur)
	}
	total := nSamples + burn
	out := make([][]float64, 0, nSamples)
	const (
		width    = 1.0
		maxSteps = 20
	)
	// One trial vector serves every coordinate's step-out and shrink:
	// each coordinate starts it from the current state.
	trial := make([]float64, len(cur))
	for s := 0; s < total; s++ {
		for d := 0; d < len(cur); d++ {
			logU := curLP + math.Log(rng.Float64()+1e-300)
			lo := cur[d] - width*rng.Float64()
			hi := lo + width
			// Step out.
			copy(trial, cur)
			for i := 0; i < maxSteps; i++ {
				trial[d] = lo
				if g.logPosterior(trial) <= logU {
					break
				}
				lo -= width
			}
			for i := 0; i < maxSteps; i++ {
				trial[d] = hi
				if g.logPosterior(trial) <= logU {
					break
				}
				hi += width
			}
			// Shrink.
			for i := 0; i < 50; i++ {
				x := lo + rng.Float64()*(hi-lo)
				trial[d] = x
				lp := g.logPosterior(trial)
				if lp > logU {
					cur[d] = x
					curLP = lp
					break
				}
				if x < cur[d] {
					lo = x
				} else {
					hi = x
				}
				if hi-lo < 1e-9 {
					trial[d] = cur[d]
					curLP = g.logPosterior(trial)
					break
				}
			}
		}
		if s >= burn {
			out = append(out, append([]float64(nil), cur...))
		}
	}
	// Leave the GP fitted at the final state.
	_ = g.setHypers(cur)
	return out
}

// FitMAP does a cheap maximum-a-posteriori hyperparameter fit: a short
// slice-sampling run followed by keeping the best sample. It is used
// when the caller wants a single point estimate rather than full
// marginalization.
func (g *GP) FitMAP(rng *rand.Rand, iters int) {
	samples := g.SliceSampleHypers(rng, iters, 2)
	best := g.hypers()
	bestLP := g.logPosterior(best)
	for _, s := range samples {
		lp := g.logPosterior(s)
		if lp > bestLP {
			bestLP = lp
			best = s
		}
	}
	_ = g.setHypers(best)
}
