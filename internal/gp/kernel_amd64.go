package gp

import "math"

// useVectorRow gates the AVX2+FMA kernel row: the host must have the
// instructions, with YMM state enabled by the OS, and the kernel must
// reproduce maternRowGeneric bit for bit on a fixed probe row. The probe
// catches a math.Exp that has left its FMA path (GODEBUG=cpu.fma=off),
// whose results the vector exp would no longer match.
var useVectorRow = hasAVX2FMA() && vectorRowMatchesProbe()

// maternRowVector evaluates the row with the four-lane kernel and
// reports whether it did. It declines when the kernel is off, when a
// slice is too short for the unchecked assembly to index, and when a
// lane leaves the range where the vector exp matches math.Exp; the
// caller then evaluates the row with maternRowGeneric.
func maternRowVector(x []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) bool {
	if !useVectorRow || len(inv) < len(x) || len(dst) < len(xs) {
		return false
	}
	for _, xi := range xs {
		if len(xi) < len(x) {
			return false
		}
	}
	return maternRow4(x, inv, xs, dst, amp2)
}

// maternRow4 sets dst[i] = amp2·(1 + r + r²/3)·exp(−r), with
// r = √(5·Σ_j ((x_j − xs[i]_j)·inv_j)²), four rows per instruction,
// each lane computing exactly the scalar loop's operations. It returns
// false, with dst partly written, when some r is NaN or above 708 —
// where math.Exp leaves the branch the vector exp mirrors. Every xs[i]
// must hold len(x) values, inv len(x), and dst len(xs).
//
//go:noescape
func maternRow4(x, inv []float64, xs [][]float64, dst []float64, amp2 float64) bool

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, whose bits 1 and 2 say the
// OS saves XMM and YMM state.
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS has
// enabled the YMM registers.
func hasAVX2FMA() bool {
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

// vectorRowMatchesProbe compares the vector kernel with
// maternRowGeneric on a fixed row: 67 points in 7 dimensions (a masked
// tail of three lanes) at distances that spread exp's argument over
// [−10, 0]. The FMA and non-FMA math.Exp sequences disagree in the last
// bit on about one argument in eleven, so a math.Exp off its FMA path
// fails the comparison.
func vectorRowMatchesProbe() bool {
	const d, n = 7, 67
	x := make([]float64, d)
	inv := make([]float64, d)
	for j := range x {
		x[j] = 0.5 + 0.05*float64(j)
		inv[j] = 1 / (0.15 + 0.1*float64(j))
	}
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = math.Mod(0.7548776662466927*float64(i+1)+0.5698402909980532*float64(j+1), 1)
		}
	}
	got := make([]float64, n)
	want := make([]float64, n)
	if !maternRow4(x, inv, xs, got, 1.3) {
		return false
	}
	maternRowGeneric(x, xs, inv, 1.3, want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}
