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

// func forwardSolve4(l []float64, y [][4]float64, n int)
//
// Four interleaved right-hand sides, one YMM register per row of y.
// Rows are solved four at a time as a panel: Y0..Y3 hold rows
// i..i+3, and for each k < i one load of y[k] (Y4) is multiplied by
// the broadcast L[i+r,k] and subtracted from row r (VMULPD then
// VSUBPD, never FMA): sixteen independent chains, each lane the scalar
// s -= L[i+r,k]·y[k]. The panel's own 4×4 triangle is then finished in
// row order, each row's chain continuing with k = i, i+1, ... before
// its division by L[i+r,i+r]. The last n mod 4 rows run one at a time
// over the same loop with a single accumulator.
TEXT ·forwardSolve4(SB), NOSPLIT, $0-56
	MOVQ l_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ n+48(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8  // R8 = n·8, the byte stride between rows of L
	MOVQ SI, R9  // R9 = &L[i,0]
	XORQ DX, DX  // DX = i
	MOVQ DI, R10 // R10 = &y[i·4]

panel:
	LEAQ 4(DX), AX
	CMPQ AX, CX
	JA   single
	LEAQ (R9)(R8*1), R11  // &L[i+1,0]
	LEAQ (R11)(R8*1), R12 // &L[i+2,0]
	LEAQ (R12)(R8*1), R13 // &L[i+3,0]
	VMOVUPD 0(R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	XORQ    AX, AX  // AX = k
	MOVQ    DI, BX  // BX = &y[k·4]
	TESTQ   DX, DX
	JZ      triangle

below:
	VMOVUPD      (BX), Y4
	VBROADCASTSD (R9)(AX*8), Y5
	VBROADCASTSD (R11)(AX*8), Y6
	VBROADCASTSD (R12)(AX*8), Y7
	VBROADCASTSD (R13)(AX*8), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $32, BX
	INCQ         AX
	CMPQ         AX, DX
	JB           below

triangle:
	// Row i.
	VBROADCASTSD (R9)(DX*8), Y5
	VDIVPD       Y5, Y0, Y0
	// Row i+1: k = i, then its diagonal.
	VBROADCASTSD (R11)(DX*8), Y6
	VMULPD       Y0, Y6, Y6
	VSUBPD       Y6, Y1, Y1
	VBROADCASTSD 8(R11)(DX*8), Y6
	VDIVPD       Y6, Y1, Y1
	// Row i+2: k = i, i+1, then its diagonal.
	VBROADCASTSD (R12)(DX*8), Y7
	VMULPD       Y0, Y7, Y7
	VSUBPD       Y7, Y2, Y2
	VBROADCASTSD 8(R12)(DX*8), Y7
	VMULPD       Y1, Y7, Y7
	VSUBPD       Y7, Y2, Y2
	VBROADCASTSD 16(R12)(DX*8), Y7
	VDIVPD       Y7, Y2, Y2
	// Row i+3: k = i, i+1, i+2, then its diagonal.
	VBROADCASTSD (R13)(DX*8), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD 8(R13)(DX*8), Y8
	VMULPD       Y1, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD 16(R13)(DX*8), Y8
	VMULPD       Y2, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD 24(R13)(DX*8), Y8
	VDIVPD       Y8, Y3, Y3
	VMOVUPD      Y0, 0(R10)
	VMOVUPD      Y1, 32(R10)
	VMOVUPD      Y2, 64(R10)
	VMOVUPD      Y3, 96(R10)
	LEAQ         (R13)(R8*1), R9
	ADDQ         $128, R10
	ADDQ         $4, DX
	JMP          panel

single:
	CMPQ    DX, CX
	JAE     done4
	VMOVUPD (R10), Y0
	XORQ    AX, AX
	MOVQ    DI, BX
	TESTQ   DX, DX
	JZ      singlediag

singlek:
	VBROADCASTSD (R9)(AX*8), Y5
	VMULPD       (BX), Y5, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ         $32, BX
	INCQ         AX
	CMPQ         AX, DX
	JB           singlek

singlediag:
	VBROADCASTSD (R9)(DX*8), Y5
	VDIVPD       Y5, Y0, Y0
	VMOVUPD      Y0, (R10)
	ADDQ         R8, R9
	ADDQ         $32, R10
	INCQ         DX
	JMP          single

done4:
	VZEROUPPER
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
