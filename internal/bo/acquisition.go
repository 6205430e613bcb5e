package bo

import (
	"math"

	"stormtune/internal/stats"
)

// Acquisition scores a candidate point given the GP posterior (mu,
// sigma) and the incumbent best observation. Larger is better. The
// optimizer maximizes the objective, so best is the current maximum.
type Acquisition interface {
	Score(mu, sigma, best float64) float64
	Name() string
}

// EI is the Expected Improvement acquisition of Mockus (1978), the
// function the paper uses ("we use Expected Improvement, as it provides
// a good tradeoff between exploration and exploitation and it is the
// method implemented in Spearmint"):
//
//	EI(x) = E[max(0, f(x) − f_max)] = σ (z Φ(z) + φ(z)),  z = (μ−f_max)/σ
type EI struct{}

// Score returns the expected improvement over best.
func (EI) Score(mu, sigma, best float64) float64 {
	if sigma <= 0 {
		if v := mu - best; v > 0 {
			return v
		}
		return 0
	}
	z := (mu - best) / sigma
	return sigma * (z*stats.NormalCDF(z) + stats.NormalPDF(z))
}

// Name identifies the acquisition in logs.
func (EI) Name() string { return "ei" }

// PI is the Probability of Improvement acquisition.
type PI struct{ Xi float64 }

// Score returns P(f(x) > best + ξ).
func (a PI) Score(mu, sigma, best float64) float64 {
	if sigma <= 0 {
		if mu > best+a.Xi {
			return 1
		}
		return 0
	}
	return stats.NormalCDF((mu - best - a.Xi) / sigma)
}

// Name identifies the acquisition in logs.
func (a PI) Name() string { return "pi" }

// UCB is the GP Upper Confidence Bound acquisition μ + κσ.
type UCB struct{ Kappa float64 }

// Score returns μ + κσ (best is ignored).
func (a UCB) Score(mu, sigma, _ float64) float64 {
	k := a.Kappa
	if k == 0 {
		k = 2
	}
	return mu + k*sigma
}

// Name identifies the acquisition in logs.
func (a UCB) Name() string { return "ucb" }

// ensure interface compliance at compile time.
var (
	_ Acquisition = EI{}
	_ Acquisition = PI{}
	_ Acquisition = UCB{}
)

// scoreMarginal averages an acquisition over a set of GP posterior
// predictions, one per hyperparameter sample (Spearmint's
// marginalization over kernel hyperparameters).
func scoreMarginal(acq Acquisition, mus, sigmas []float64, best float64) float64 {
	s := 0.0
	for i := range mus {
		s += acq.Score(mus[i], sigmas[i], best)
	}
	if len(mus) == 0 {
		return math.Inf(-1)
	}
	return s / float64(len(mus))
}
