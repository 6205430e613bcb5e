package stats

import "math"

// NormalPDF returns the standard normal density at z.
func NormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// NormalCDF returns the standard normal cumulative distribution at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
