#include "textflag.h"

// Broadcast constants for the Matérn-5/2 row, four copies each so every
// arithmetic instruction can take them as a 256-bit memory operand. The
// exp constants are those of math.archExp (math/exp_amd64.s).
#define BCAST(off, v) DATA maternc<>+(off)(SB)/8, v; DATA maternc<>+(off+8)(SB)/8, v; DATA maternc<>+(off+16)(SB)/8, v; DATA maternc<>+(off+24)(SB)/8, v

#define C_FIVE 0
#define C_RMAX 32
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

BCAST(C_FIVE, $5.0)
BCAST(C_RMAX, $708.0)
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
GLOBL maternc<>(SB), RODATA|NOPTR, $576

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

// func maternRow4(x, inv []float64, xs [][]float64, dst []float64, amp2 float64) bool
//
// Rows are taken four at a time, lane l holding xs[i+l]; a last group
// of fewer rows repeats its last row pointer in the spare lanes and
// stores only the real ones. Per lane the arithmetic is the scalar
// loop's, operation for operation and in the same order: r² summed
// over the dimensions with a separate multiply and add, r = √(5r²),
// amp2·((1+r) + r·r/3), and exp(−r) by the FMA branch of math.archExp.
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
	// Y0 = r = √(5r²). A lane with r NaN or above 708 would take one of
	// archExp's special branches: give the row back to the caller.
	VMULPD    maternc<>+C_FIVE(SB), Y0, Y0
	VSQRTPD   Y0, Y0
	VCMPPD    $0x16, maternc<>+C_RMAX(SB), Y0, Y1
	VMOVMSKPD Y1, AX
	TESTQ     AX, AX
	JNZ       declined

	// Y2 = amp2·((1 + r) + r·r/3).
	VMULPD Y0, Y0, Y1
	VDIVPD maternc<>+C_THREE(SB), Y1, Y1
	VADDPD maternc<>+C_ONE(SB), Y0, Y2
	VADDPD Y1, Y2, Y2
	VMULPD Y2, Y15, Y2

	// Y0 = exp(−r): archExp's FMA branch. k = round(−r·log2(e)),
	// reduce by k·ln2 in two fused steps, scale by 1/16, Taylor
	// polynomial by Horner, square back four times as z·(z+2) with the
	// last step fused with +1, and multiply by 2^k.
	VXORPD       maternc<>+C_SIGN(SB), Y0, Y0
	VMULPD       maternc<>+C_LOG2E(SB), Y0, Y1
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD maternc<>+C_LN2U(SB), Y1, Y0
	VFNMADD231PD maternc<>+C_LN2L(SB), Y1, Y0
	VMULPD       maternc<>+C_SIXTEENTH(SB), Y0, Y0
	VMOVUPD      maternc<>+C_P8(SB), Y4
	VFMADD213PD  maternc<>+C_P7(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_P6(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_P5(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_P4(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_P3(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_HALF(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_ONE(SB), Y0, Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       maternc<>+C_TWO(SB), Y0, Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       maternc<>+C_TWO(SB), Y0, Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       maternc<>+C_TWO(SB), Y0, Y4
	VMULPD       Y4, Y0, Y0
	VADDPD       maternc<>+C_TWO(SB), Y0, Y4
	VFMADD213PD  maternc<>+C_ONE(SB), Y4, Y0
	VPMOVSXDQ    X3, Y3
	VPADDQ       maternc<>+C_BIAS(SB), Y3, Y3
	VPSLLQ       $52, Y3, Y3
	VMULPD       Y3, Y0, Y0

	// dst = amp2·(…)·exp(−r).
	VMULPD Y0, Y2, Y0
	CMPQ   CX, $4
	JLT    tail
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

declined:
	VZEROUPPER
	MOVB $0, ret+104(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
