//go:build !amd64

package gp

// setVectorRow is a no-op off amd64, where no vector kernel exists: it
// reports the kernels were off.
func setVectorRow(on bool) (was bool) { return false }
