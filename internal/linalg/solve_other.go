//go:build !amd64

package linalg

// HasAVX2FMA reports false: no vector kernel exists off amd64.
func HasAVX2FMA() bool { return false }

// vectorSolveOK is false: off amd64 every solve and factorization runs
// its portable loop.
const vectorSolveOK = false

// forwardSolve16 is never reached off amd64 (the vector solve is off);
// it stands in for the assembly so the dispatch compiles everywhere.
func forwardSolve16(l, y []float64, n int) { forwardSolve16Generic(l, y, n) }

// forwardSolve4 is never reached off amd64, like forwardSolve16.
func forwardSolve4(l []float64, y [][4]float64, n int) { forwardSolve4Generic(l, y, n) }

// choleskyColumn is never reached off amd64: tryCholesky takes the
// scalar loop there.
func choleskyColumn(l, d []float64, n, j int, ljj float64) {
	panic("linalg: no column kernel off amd64")
}
