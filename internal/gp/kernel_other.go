//go:build !amd64

package gp

// useVectorRow is false: no vector kernel exists off amd64.
const useVectorRow = false

// maternRowVector reports false: off amd64 every row takes
// maternRowGeneric.
func maternRowVector(x []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) bool {
	return false
}

// maternBlockVector reports false: off amd64 a block's rows are
// evaluated one candidate at a time.
func maternBlockVector(xt []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) bool {
	return false
}

// laneDot16 is the portable form of the amd64 lane sum: dst[l] =
// Σ_k y[k·16+l]·b[k], k ascending, lane l bitwise linalg.Dot. The wide
// path that calls it runs only where linalg's vector solve is on, which
// is never off amd64.
func laneDot16(y, b []float64, dst *[Block]float64) {
	*dst = [Block]float64{}
	for k, bk := range b {
		for l, v := range y[k*Block : k*Block+Block] {
			dst[l] += v * bk
		}
	}
}

// laneSquares16 is the portable form of the amd64 lane sum of squares:
// dst[l] = Σ_k y[k·16+l]², lane l bitwise linalg.Dot(v, v).
func laneSquares16(y []float64, dst *[Block]float64) {
	*dst = [Block]float64{}
	for k := 0; k+Block <= len(y); k += Block {
		for l, v := range y[k : k+Block] {
			dst[l] += v * v
		}
	}
}
