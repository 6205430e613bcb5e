// Package bo implements Bayesian optimization in the style of Spearmint
// (Snoek, Larochelle & Adams 2012), the toolkit the paper uses: a
// Gaussian-process surrogate over the unit hypercube, Expected
// Improvement acquisition marginalized over slice-sampled kernel
// hyperparameters, and a Suggest/Observe loop. The optimizer keeps no
// snapshot of its own: a session resumes by replaying its op log into a
// fresh optimizer (internal/core).
//
// # The incremental hot path
//
// The optimizer amortizes surrogate work across asks through a
// modelCache (cache.go). Hyperparameter slice sampling and
// y-standardization run only at refit epochs — a pure function of the
// observation count — and stay frozen in between; each ask then
// extends the cached Cholesky factors with the new observations
// (gp.GP.Observe) and conditions constant-liar fantasies in and out by
// trailing extend/retract, instead of refitting the ensemble from
// scratch. Sessions with Options.MaxGPPoints condition on a sliding
// window instead: they rebuild the ensemble every ask on the epoch's
// frozen hypers. Tests pin the cache bit-for-bit against a cold rebuild
// on every ask; Options.InitHypers warm-starts the first epoch from
// another session's HyperState.
package bo

import (
	"fmt"
	"math"
)

// DimKind distinguishes parameter types. Integers and enums are
// optimized via a continuous relaxation on [0,1] rounded at evaluation
// time, the standard Spearmint treatment.
type DimKind int

// Parameter kinds.
const (
	Float DimKind = iota
	Int
	Enum
)

// Dim describes a single configuration parameter.
type Dim struct {
	Name string  `json:"name"`
	Kind DimKind `json:"kind"`
	// Min/Max bound Float and Int dims (inclusive).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Values enumerate Enum dims.
	Values []string `json:"values,omitempty"`
	// Log selects log-scale mapping for Float/Int dims whose range spans
	// orders of magnitude (e.g. batch size 100..500000).
	Log bool `json:"log,omitempty"`
}

// Space is an ordered list of parameters defining the search domain.
type Space struct {
	Dims []Dim `json:"dims"`
}

// NewSpace validates and wraps dims.
func NewSpace(dims ...Dim) (*Space, error) {
	for i, d := range dims {
		switch d.Kind {
		case Float, Int:
			if !(d.Min < d.Max) {
				return nil, fmt.Errorf("bo: dim %d (%s): min %v must be < max %v", i, d.Name, d.Min, d.Max)
			}
			if d.Log && d.Min <= 0 {
				return nil, fmt.Errorf("bo: dim %d (%s): log scale requires min > 0", i, d.Name)
			}
			if d.Kind == Int && (d.Min != math.Trunc(d.Min) || d.Max != math.Trunc(d.Max)) {
				return nil, fmt.Errorf("bo: dim %d (%s): integer bounds must be whole numbers", i, d.Name)
			}
		case Enum:
			if len(d.Values) < 2 {
				return nil, fmt.Errorf("bo: dim %d (%s): enum needs ≥2 values", i, d.Name)
			}
		default:
			return nil, fmt.Errorf("bo: dim %d (%s): unknown kind %d", i, d.Name, d.Kind)
		}
	}
	return &Space{Dims: dims}, nil
}

// MustSpace is NewSpace that panics on error; for statically known spaces.
func MustSpace(dims ...Dim) *Space {
	s, err := NewSpace(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// D returns the dimensionality of the unit-cube representation.
func (s *Space) D() int { return len(s.Dims) }

// Decode maps a unit-cube point u ∈ [0,1]^d to concrete parameter
// values: floats within [Min,Max], ints rounded, enums by index.
func (s *Space) Decode(u []float64) []float64 {
	if len(u) != len(s.Dims) {
		panic(fmt.Sprintf("bo: decode point of dim %d against space of dim %d", len(u), len(s.Dims)))
	}
	out := make([]float64, len(u))
	for i, d := range s.Dims {
		v := clamp01(u[i])
		switch d.Kind {
		case Float:
			out[i] = d.fromUnit(v)
		case Int:
			out[i] = math.Round(d.fromUnit(v))
			if out[i] < d.Min {
				out[i] = d.Min
			}
			if out[i] > d.Max {
				out[i] = d.Max
			}
		case Enum:
			idx := int(v * float64(len(d.Values)))
			if idx >= len(d.Values) {
				idx = len(d.Values) - 1
			}
			out[i] = float64(idx)
		}
	}
	return out
}

// Encode maps concrete parameter values back onto the unit cube,
// inverse of Decode up to rounding.
func (s *Space) Encode(vals []float64) []float64 {
	if len(vals) != len(s.Dims) {
		panic(fmt.Sprintf("bo: encode point of dim %d against space of dim %d", len(vals), len(s.Dims)))
	}
	u := make([]float64, len(vals))
	for i, d := range s.Dims {
		switch d.Kind {
		case Float, Int:
			u[i] = clamp01(d.toUnit(vals[i]))
		case Enum:
			n := float64(len(d.Values))
			u[i] = clamp01((vals[i] + 0.5) / n)
		}
	}
	return u
}

func (d Dim) fromUnit(v float64) float64 {
	if d.Log {
		lo, hi := math.Log(d.Min), math.Log(d.Max)
		return math.Exp(lo + v*(hi-lo))
	}
	return d.Min + v*(d.Max-d.Min)
}

func (d Dim) toUnit(x float64) float64 {
	if d.Log {
		lo, hi := math.Log(d.Min), math.Log(d.Max)
		return (math.Log(x) - lo) / (hi - lo)
	}
	return (x - d.Min) / (d.Max - d.Min)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// EnumValue returns the string label for an enum dim's decoded value.
func (s *Space) EnumValue(dim int, decoded float64) string {
	d := s.Dims[dim]
	if d.Kind != Enum {
		panic(fmt.Sprintf("bo: dim %d (%s) is not an enum", dim, d.Name))
	}
	return d.Values[int(decoded)]
}
