//go:build !amd64

package linalg

// HasAVX2FMA reports false: no vector kernel exists off amd64.
func HasAVX2FMA() bool { return false }

// vectorSolveOK is false: off amd64 ForwardSolve16Into always runs
// forwardSolve16Generic.
const vectorSolveOK = false

// forwardSolve16 is never reached off amd64 (the vector solve is off);
// it stands in for the assembly so the dispatch compiles everywhere.
func forwardSolve16(l, y []float64, n int) { forwardSolve16Generic(l, y, n) }
