//go:build !amd64

package gp

// useVectorRow is false: no vector kernel row exists off amd64.
const useVectorRow = false

// maternRowVector reports false: off amd64 every row takes
// maternRowGeneric.
func maternRowVector(x []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) bool {
	return false
}
