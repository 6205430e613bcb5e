#include "textflag.h"

// Broadcast constants for the Matérn-5/2 kernels, four copies each so
// every arithmetic instruction can take them as a 256-bit memory
// operand. The exp constants are those of math.archExp
// (math/exp_amd64.s).
#define BCAST(off, v) DATA maternc<>+(off)(SB)/8, v; DATA maternc<>+(off+8)(SB)/8, v; DATA maternc<>+(off+16)(SB)/8, v; DATA maternc<>+(off+24)(SB)/8, v

#define C_FIVE 0
#define C_INF 32
#define C_THREE 64
#define C_ONE 96
#define C_SIGN 128
#define C_LOG2E 160
#define C_LN2U 192
#define C_LN2L 224
#define C_SIXTEENTH 256
#define C_P8 288
#define C_P7 320
#define C_P6 352
#define C_P5 384
#define C_P4 416
#define C_P3 448
#define C_HALF 480
#define C_TWO 512
#define C_BIAS 544
#define C_SUBBIAS 576
#define C_TINY 608
#define C_SUBTEST 640
#define C_UNDERTEST 672
#define C_ZERO 704
#define C_RMAX 736

BCAST(C_FIVE, $5.0)
BCAST(C_INF, $0x7ff0000000000000)
BCAST(C_THREE, $3.0)
BCAST(C_ONE, $1.0)
BCAST(C_SIGN, $0x8000000000000000)
BCAST(C_LOG2E, $1.4426950408889634073599246810018920)
BCAST(C_LN2U, $0.69314718055966295651160180568695068359375)
BCAST(C_LN2L, $0.28235290563031577122588448175013436025525412068e-12)
BCAST(C_SIXTEENTH, $0.0625)
BCAST(C_P8, $2.4801587301587301587e-5)
BCAST(C_P7, $1.9841269841269841270e-4)
BCAST(C_P6, $1.3888888888888888889e-3)
BCAST(C_P5, $8.3333333333333333333e-3)
BCAST(C_P4, $4.1666666666666666667e-2)
BCAST(C_P3, $1.6666666666666666667e-1)
BCAST(C_HALF, $0.5)
BCAST(C_TWO, $2.0)
BCAST(C_BIAS, $1023)
BCAST(C_SUBBIAS, $2045)
BCAST(C_TINY, $0x0010000000000000)
BCAST(C_SUBTEST, $1022)
BCAST(C_UNDERTEST, $1075)
BCAST(C_ZERO, $0)
BCAST(C_RMAX, $708.0)
GLOBL maternc<>(SB), RODATA|NOPTR, $768

// Store masks for a last group of one, two and three rows.
DATA maternmask<>+0(SB)/8, $-1
DATA maternmask<>+8(SB)/8, $0
DATA maternmask<>+16(SB)/8, $0
DATA maternmask<>+24(SB)/8, $0
DATA maternmask<>+32(SB)/8, $-1
DATA maternmask<>+40(SB)/8, $-1
DATA maternmask<>+48(SB)/8, $0
DATA maternmask<>+56(SB)/8, $0
DATA maternmask<>+64(SB)/8, $-1
DATA maternmask<>+72(SB)/8, $-1
DATA maternmask<>+80(SB)/8, $-1
DATA maternmask<>+88(SB)/8, $0
GLOBL maternmask<>(SB), RODATA|NOPTR, $96

// MATERN sets R = amp2·((1 + r) + r·r/3)·exp(−r) for the four lanes of
// R = r, 0 ≤ r ≤ 708, each lane the scalar kernel's operations in its
// order, with amp2 broadcast in Y15. P, T, Q and S are scratch; KX and
// KY name the X and Y halves of one more scratch register. exp(−r) is
// math.archExp's FMA branch (EXPMANT), and its ldexp tail for a normal
// result: multiply by 2^k built as (k+1023)<<52.
#define MATERN(R, P, T, Q, S, KX, KY) \
	EXPMANT(R, P, T, Q, KX); \
	VPMOVSXDQ KX, KY; \
	VPADDQ    maternc<>+C_BIAS(SB), KY, S; \
	VPSLLQ    $52, S, S; \
	VMULPD    S, R, R; \
	VMULPD    R, P, R

// MATERNTAIL is MATERN for any finite r ≥ 0: the ldexp tail takes every
// branch archExp takes for x = −r ≤ 0. With e = k + 1023, e > 0
// multiplies by e<<52; −52 ≤ e ≤ 0 multiplies by (e+1022)<<52 and then
// by 2^−1022; e < −52 gives +0. All three are computed and each lane's
// own chosen by the sign of k + 1022 (e ≤ 0) and of k + 1075 (e < −52).
// An r beyond the int32 range converts to k = −2^31 and so lands in
// the last case, as in archExp.
#define MATERNTAIL(R, P, T, Q, S, KX, KY) \
	EXPMANT(R, P, T, Q, KX); \
	VPMOVSXDQ KX, KY; \
	VPADDQ    maternc<>+C_BIAS(SB), KY, S; \
	VPSLLQ    $52, S, S; \
	VMULPD    S, R, T; \
	VPADDQ    maternc<>+C_SUBBIAS(SB), KY, S; \
	VPSLLQ    $52, S, S; \
	VMULPD    S, R, R; \
	VMULPD    maternc<>+C_TINY(SB), R, R; \
	VPADDQ    maternc<>+C_SUBTEST(SB), KY, S; \
	VBLENDVPD S, R, T, R; \
	VPADDQ    maternc<>+C_UNDERTEST(SB), KY, S; \
	VBLENDVPD S, maternc<>+C_ZERO(SB), R, R; \
	VMULPD    R, P, R

// EXPMANT sets P = amp2·((1 + r) + r·r/3) and, for x = −r, KX = k =
// round(x·log2(e)) and R = exp(x − k·ln2): archExp's FMA branch up to
// its ldexp tail. Reduce by k·ln2 in two fused steps, scale by 1/16,
// Taylor polynomial by Horner, square back four times as z·(z+2) with
// the last step fused with +1.
#define EXPMANT(R, P, T, Q, KX) \
	VMULPD       R, R, T; \
	VDIVPD       maternc<>+C_THREE(SB), T, T; \
	VADDPD       maternc<>+C_ONE(SB), R, P; \
	VADDPD       T, P, P; \
	VMULPD       P, Y15, P; \
	VXORPD       maternc<>+C_SIGN(SB), R, R; \
	VMULPD       maternc<>+C_LOG2E(SB), R, T; \
	VCVTPD2DQY   T, KX; \
	VCVTDQ2PD    KX, T; \
	VFNMADD231PD maternc<>+C_LN2U(SB), T, R; \
	VFNMADD231PD maternc<>+C_LN2L(SB), T, R; \
	VMULPD       maternc<>+C_SIXTEENTH(SB), R, R; \
	VMOVUPD      maternc<>+C_P8(SB), Q; \
	VFMADD213PD  maternc<>+C_P7(SB), R, Q; \
	VFMADD213PD  maternc<>+C_P6(SB), R, Q; \
	VFMADD213PD  maternc<>+C_P5(SB), R, Q; \
	VFMADD213PD  maternc<>+C_P4(SB), R, Q; \
	VFMADD213PD  maternc<>+C_P3(SB), R, Q; \
	VFMADD213PD  maternc<>+C_HALF(SB), R, Q; \
	VFMADD213PD  maternc<>+C_ONE(SB), R, Q; \
	VMULPD       Q, R, R; \
	VADDPD       maternc<>+C_TWO(SB), R, Q; \
	VMULPD       Q, R, R; \
	VADDPD       maternc<>+C_TWO(SB), R, Q; \
	VMULPD       Q, R, R; \
	VADDPD       maternc<>+C_TWO(SB), R, Q; \
	VMULPD       Q, R, R; \
	VADDPD       maternc<>+C_TWO(SB), R, Q; \
	VFMADD213PD  maternc<>+C_ONE(SB), Q, R

// func maternRow4(x, inv []float64, xs [][]float64, dst []float64, amp2 float64) bool
//
// Rows are taken four at a time, lane l holding xs[i+l]; a last group
// of fewer rows repeats its last row pointer in the spare lanes and
// stores only the real ones. Per lane the arithmetic is the scalar
// loop's, operation for operation and in the same order: r² summed
// over the dimensions with a separate multiply and add, r = √(5r²),
// then MATERN.
TEXT ·maternRow4(SB), NOSPLIT, $0-105
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ inv_base+24(FP), DI
	MOVQ xs_base+48(FP), BX
	MOVQ xs_len+56(FP), CX
	MOVQ dst_base+72(FP), R12
	VBROADCASTSD amp2+96(FP), Y15
	TESTQ CX, CX
	JZ   done

group:
	// Row pointers; spare lanes repeat the last real row.
	MOVQ 0(BX), R8
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ CX, $2
	JLT  rows
	MOVQ 24(BX), R9
	MOVQ R9, R10
	MOVQ R9, R11
	CMPQ CX, $3
	JLT  rows
	MOVQ 48(BX), R10
	MOVQ R10, R11
	CMPQ CX, $4
	JLT  rows
	MOVQ 72(BX), R11

rows:
	// Y0 = r² = Σ_j ((x_j − xs_j)·inv_j)², j ascending.
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	TESTQ  DX, DX
	JZ     dist

dim:
	VMOVSD       (R8)(AX*8), X1
	VMOVHPD      (R9)(AX*8), X1, X1
	VMOVSD       (R10)(AX*8), X2
	VMOVHPD      (R11)(AX*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VBROADCASTSD (SI)(AX*8), Y2
	VSUBPD       Y1, Y2, Y1
	VBROADCASTSD (DI)(AX*8), Y3
	VMULPD       Y3, Y1, Y1
	VMULPD       Y1, Y1, Y1
	VADDPD       Y1, Y0, Y0
	INCQ         AX
	CMPQ         AX, DX
	JLT          dim

dist:
	// Y0 = r = √(5r²). A group with every r at most 708 takes the
	// normal-result tail; any other goes to fullrange.
	VMULPD    maternc<>+C_FIVE(SB), Y0, Y0
	VSQRTPD   Y0, Y0
	VCMPPD    $0x16, maternc<>+C_RMAX(SB), Y0, Y1
	VMOVMSKPD Y1, AX
	TESTQ     AX, AX
	JNZ       fullrange
	MATERN(Y0, Y2, Y1, Y4, Y5, X3, Y3)

store:
	CMPQ CX, $4
	JLT  tail
	VMOVUPD Y0, (R12)
	ADDQ   $96, BX
	ADDQ   $32, R12
	SUBQ   $4, CX
	JNZ    group
	JMP    done

tail:
	LEAQ       maternmask<>(SB), AX
	DECQ       CX
	SHLQ       $5, CX
	VMOVUPD    (AX)(CX*1), Y1
	VMASKMOVPD Y0, Y1, (R12)

done:
	VZEROUPPER
	MOVB $1, ret+104(FP)
	RET

fullrange:
	// A lane with r NaN or +Inf would take one of archExp's
	// special-value branches: give the row back to the caller. Finite
	// r takes every branch of the ldexp tail.
	VCMPPD    $0x15, maternc<>+C_INF(SB), Y0, Y1
	VMOVMSKPD Y1, AX
	TESTQ     AX, AX
	JNZ       declined
	MATERNTAIL(Y0, Y2, Y1, Y4, Y5, X3, Y3)
	JMP       store

declined:
	VZEROUPPER
	MOVB $0, ret+104(FP)
	RET

// func maternBlock16(xt, inv []float64, xs [][]float64, dst []float64, amp2 float64) bool
//
// The sixteen lanes are candidates, stored transposed: xt[j·16+l] is
// dimension j of candidate l, for the len(inv) dimensions. For each
// training point k it broadcasts xs[k][j] and inv[j] and accumulates
// ((c_lj − xs[k][j])·inv_j)² over j ascending in four independent
// chains of four lanes (Y0..Y3), with a separate multiply and add, then
// takes r = √(5r²), applies MATERN to each chain and stores lane l at
// dst[k·16+l]. Each lane thus repeats maternRow4's and the scalar
// loop's operations for its candidate. It returns false, with dst
// partly written, as soon as some lane's r is NaN or +Inf.
TEXT ·maternBlock16(SB), NOSPLIT, $0-105
	MOVQ xt_base+0(FP), SI
	MOVQ inv_base+24(FP), DI
	MOVQ inv_len+32(FP), DX
	MOVQ xs_base+48(FP), BX
	MOVQ xs_len+56(FP), CX
	MOVQ dst_base+72(FP), R12
	VBROADCASTSD amp2+96(FP), Y15
	TESTQ CX, CX
	JZ   bdone

point:
	MOVQ   0(BX), R8 // R8 = &xs[k][0]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX // AX = j
	MOVQ   SI, R9 // R9 = &xt[j·16]
	TESTQ  DX, DX
	JZ     bdist

bdim:
	VBROADCASTSD (R8)(AX*8), Y4
	VBROADCASTSD (DI)(AX*8), Y5
	VMOVUPD      0(R9), Y6
	VMOVUPD      32(R9), Y7
	VMOVUPD      64(R9), Y8
	VMOVUPD      96(R9), Y9
	VSUBPD       Y4, Y6, Y6
	VSUBPD       Y4, Y7, Y7
	VSUBPD       Y4, Y8, Y8
	VSUBPD       Y4, Y9, Y9
	VMULPD       Y5, Y6, Y6
	VMULPD       Y5, Y7, Y7
	VMULPD       Y5, Y8, Y8
	VMULPD       Y5, Y9, Y9
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VMULPD       Y9, Y9, Y9
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y1, Y1
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y3, Y3
	ADDQ         $128, R9
	INCQ         AX
	CMPQ         AX, DX
	JLT          bdim

bdist:
	// r = √(5r²) in every chain. A point with every r at most 708 takes
	// the normal-result tail; any other goes to bfullrange.
	VMULPD    maternc<>+C_FIVE(SB), Y0, Y0
	VMULPD    maternc<>+C_FIVE(SB), Y1, Y1
	VMULPD    maternc<>+C_FIVE(SB), Y2, Y2
	VMULPD    maternc<>+C_FIVE(SB), Y3, Y3
	VSQRTPD   Y0, Y0
	VSQRTPD   Y1, Y1
	VSQRTPD   Y2, Y2
	VSQRTPD   Y3, Y3
	VCMPPD    $0x16, maternc<>+C_RMAX(SB), Y0, Y4
	VCMPPD    $0x16, maternc<>+C_RMAX(SB), Y1, Y5
	VCMPPD    $0x16, maternc<>+C_RMAX(SB), Y2, Y6
	VCMPPD    $0x16, maternc<>+C_RMAX(SB), Y3, Y7
	VORPD     Y5, Y4, Y4
	VORPD     Y7, Y6, Y6
	VORPD     Y6, Y4, Y4
	VMOVMSKPD Y4, AX
	TESTQ     AX, AX
	JNZ       bfullrange
	MATERN(Y0, Y4, Y5, Y6, Y7, X8, Y8)
	MATERN(Y1, Y9, Y10, Y11, Y12, X13, Y13)
	MATERN(Y2, Y4, Y5, Y6, Y7, X8, Y8)
	MATERN(Y3, Y9, Y10, Y11, Y12, X13, Y13)

bstore:
	VMOVUPD Y0, 0(R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ    $24, BX
	ADDQ    $128, R12
	DECQ    CX
	JNZ     point

bdone:
	VZEROUPPER
	MOVB $1, ret+104(FP)
	RET

bfullrange:
	// Decline on any NaN or +Inf lane; finite r takes every branch of
	// the ldexp tail.
	VCMPPD     $0x15, maternc<>+C_INF(SB), Y0, Y4
	VCMPPD     $0x15, maternc<>+C_INF(SB), Y1, Y5
	VCMPPD     $0x15, maternc<>+C_INF(SB), Y2, Y6
	VCMPPD     $0x15, maternc<>+C_INF(SB), Y3, Y7
	VORPD      Y5, Y4, Y4
	VORPD      Y7, Y6, Y6
	VORPD      Y6, Y4, Y4
	VMOVMSKPD  Y4, AX
	TESTQ      AX, AX
	JNZ        bdeclined
	MATERNTAIL(Y0, Y4, Y5, Y6, Y7, X8, Y8)
	MATERNTAIL(Y1, Y9, Y10, Y11, Y12, X13, Y13)
	MATERNTAIL(Y2, Y4, Y5, Y6, Y7, X8, Y8)
	MATERNTAIL(Y3, Y9, Y10, Y11, Y12, X13, Y13)
	JMP        bstore

bdeclined:
	VZEROUPPER
	MOVB $0, ret+104(FP)
	RET

// func laneDot16(y, b []float64, dst *[16]float64)
//
// dst[l] = Σ_k y[k·16+l]·b[k] over k ascending from zero, each term
// multiplied and added separately: per lane exactly linalg.Dot of lane
// l's entries with b. len(y) must be at least 16·len(b).
TEXT ·laneDot16(SB), NOSPLIT, $0-56
	MOVQ   y_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   b_len+32(FP), CX
	MOVQ   dst+48(FP), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     dotdone

dotk:
	VBROADCASTSD (DI), Y4
	VMULPD       0(SI), Y4, Y5
	VMULPD       32(SI), Y4, Y6
	VMULPD       64(SI), Y4, Y7
	VMULPD       96(SI), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, DI
	ADDQ         $128, SI
	DECQ         CX
	JNZ          dotk

dotdone:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VZEROUPPER
	RET

// func laneSquares16(y []float64, dst *[16]float64)
//
// dst[l] = Σ_k y[k·16+l]² over k ascending from zero, each square and
// sum rounded separately: per lane exactly linalg.Dot(v, v) of lane l's
// entries. len(y) must be a multiple of 16.
TEXT ·laneSquares16(SB), NOSPLIT, $0-32
	MOVQ   y_base+0(FP), SI
	MOVQ   y_len+8(FP), CX
	MOVQ   dst+24(FP), R8
	SHRQ   $4, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     sqdone

sqk:
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $128, SI
	DECQ    CX
	JNZ     sqk

sqdone:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VZEROUPPER
	RET
