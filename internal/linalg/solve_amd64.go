package linalg

import "math"

// hasAVX2FMA is the host check every amd64 vector kernel in the module
// shares: CPUID reports AVX2 and FMA and the OS saves YMM state.
var hasAVX2FMA = detectAVX2FMA()

// HasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS has
// enabled the YMM registers: the precondition of every vector kernel
// (this package's forward solve, gp's kernel row).
func HasAVX2FMA() bool { return hasAVX2FMA }

// vectorSolveOK says the AVX2 forward solve may run: the host passes
// HasAVX2FMA and the kernel reproduces the lane-by-lane solve bit for
// bit on a fixed probe at package init.
var vectorSolveOK = hasAVX2FMA && vectorSolveMatchesProbe()

// forwardSolve16 solves L y = b in place for sixteen interleaved
// right-hand sides (y[k·16+q] holds lane q's entry k). For each row i
// it loads the row's sixteen entries into four YMM accumulators, and
// for each k < i broadcasts L[i,k] and subtracts L[i,k]·y[k] from each
// with a separate multiply and subtract, then divides by L[i,i]. Every
// lane thus performs ForwardSolveInto's operations in its order. l must
// hold n·n entries and y 16·n.
//
//go:noescape
func forwardSolve16(l, y []float64, n int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, whose bits 1 and 2 say the
// OS saves XMM and YMM state.
func xgetbv() (eax, edx uint32)

func detectAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// vectorSolveMatchesProbe compares the assembly solve with the
// lane-by-lane solve on a fixed 37×37 factor and sixteen right-hand
// sides of mixed sign and magnitude.
func vectorSolveMatchesProbe() bool {
	const n = 37
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			l[i*n+k] = 0.3 * (2*frac(0.7548776662466927*float64(i+1)+0.5698402909980532*float64(k+1)) - 1)
		}
		l[i*n+i] = 1 + frac(0.6180339887498949*float64(i+1))
	}
	got := make([]float64, 16*n)
	for i := range got {
		got[i] = (2*frac(0.4142135623730951*float64(i+1)) - 1) * float64(int(1)<<(i%23))
	}
	want := append([]float64(nil), got...)
	forwardSolve16(l, got, n)
	forwardSolve16Generic(l, want, n)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// frac returns the fractional part of a non-negative x.
func frac(x float64) float64 { return x - float64(int64(x)) }
