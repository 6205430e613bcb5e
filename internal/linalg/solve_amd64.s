#include "textflag.h"

// func forwardSolve16(l, y []float64, n int)
//
// Row i of the solve keeps lanes 0..15 of y[i] in Y0..Y3. For each
// k < i it broadcasts L[i,k] into Y4, multiplies it by the four
// registers' worth of y[k] (VMULPD) and subtracts each product from its
// accumulator (VSUBPD): four independent chains, each lane the scalar
// s -= L[i,k]·y[k] with the product rounded before the subtraction. No
// FMA, which would round once and break bit-identity with
// ForwardSolveInto. Then it divides by the broadcast L[i,i] and stores
// the row back over its right-hand side.
TEXT ·forwardSolve16(SB), NOSPLIT, $0-56
	MOVQ  l_base+0(FP), SI
	MOVQ  y_base+24(FP), DI
	MOVQ  n+48(FP), CX
	TESTQ CX, CX
	JZ    done
	MOVQ  CX, R8
	SHLQ  $3, R8  // R8 = n·8, the byte stride between rows of L
	MOVQ  DI, R9  // R9 = &y[i·16]
	XORQ  DX, DX  // DX = i

row:
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	XORQ    AX, AX // AX = k
	MOVQ    DI, R10 // R10 = &y[k·16]
	TESTQ   DX, DX
	JZ      diag

inner:
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD       0(R10), Y4, Y5
	VMULPD       32(R10), Y4, Y6
	VMULPD       64(R10), Y4, Y7
	VMULPD       96(R10), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $128, R10
	INCQ         AX
	CMPQ         AX, DX
	JB           inner

diag:
	VBROADCASTSD (SI)(DX*8), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, 0(R9)
	VMOVUPD      Y1, 32(R9)
	VMOVUPD      Y2, 64(R9)
	VMOVUPD      Y3, 96(R9)
	ADDQ         R8, SI
	ADDQ         $128, R9
	INCQ         DX
	CMPQ         DX, CX
	JB           row
	VZEROUPPER

done:
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
