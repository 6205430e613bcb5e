#include "textflag.h"

// func choleskyColumn(l, d []float64, n, j int, ljj float64)
//
// Column j of the factor, over the column-major working copy in l's
// upper triangle: L[i,k] sits at l[k·n+i] for i > k, and l[j·n+i]
// holds A[i,j] on entry. Rows i = j+1..n-1 are the lanes, sixteen per
// pass in Y0..Y3. For each k < j the pass broadcasts L[j,k]
// (l[k·n+j]) into Y4, multiplies it by the sixteen contiguous
// L[i..i+15,k] (VMULPD) and subtracts each product from its
// accumulator (VSUBPD): forwardSolve16's inner loop, with the row
// stride of l between k's. No FMA, so every lane is the scalar
// s -= L[i,k]·L[j,k] chain in k order. The pass then divides by the
// broadcast L[j,j], stores the lanes back, and takes each lane's
// square off its row's running pivot, d[i] -= L[i,j]², the next step
// of that pivot's chain.
//
// A last pass of r < 16 rows computes all sixteen lanes, the spare ones
// from whatever follows the column in l, and stores only its r: whole
// registers while four or more rows remain, then two lanes and one.
// Its loads run at most 15 entries past the end of a row of l, which
// stays inside l when n ≥ 15 (the caller's crossover guarantees it),
// and d must hold n+15 entries. Masked loads and stores (VMASKMOVPD)
// would avoid the overrun but take hundreds of cycles on some hosts.
TEXT ·choleskyColumn(SB), NOSPLIT, $0-72
	MOVQ         l_base+0(FP), SI
	MOVQ         d_base+24(FP), DI
	MOVQ         n+48(FP), CX
	MOVQ         j+56(FP), DX
	VBROADCASTSD ljj+64(FP), Y9
	MOVQ         CX, R8
	SHLQ         $3, R8         // R8 = n·8, the byte stride between k's
	MOVQ         DX, AX
	IMULQ        CX, AX
	ADDQ         DX, AX
	LEAQ         (SI)(AX*8), R9 // R9 = &l[j·n+j]
	LEAQ         (SI)(DX*8), SI // SI = &l[j], L[j,0]
	LEAQ         1(DX), BX      // BX = i, the pass's first row
	LEAQ         (DI)(BX*8), DI // DI = &d[i]
	MOVQ         $8, R13        // R13 = (i−j)·8

pass:
	MOVQ    CX, AX
	SUBQ    BX, AX           // AX = rows left
	JLE     done
	LEAQ    (R9)(R13*1), R10 // R10 = &l[j·n+i]
	VMOVUPD 0(R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	MOVQ    SI, R11          // R11 = &l[k·n+j]
	MOVQ    DX, R12          // R12 = k's left
	TESTQ   R12, R12
	JZ      divide

below:
	VBROADCASTSD (R11), Y4
	VMULPD       0(R11)(R13*1), Y4, Y5
	VMULPD       32(R11)(R13*1), Y4, Y6
	VMULPD       64(R11)(R13*1), Y4, Y7
	VMULPD       96(R11)(R13*1), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         R8, R11
	DECQ         R12
	JNZ          below

divide:
	VDIVPD  Y9, Y0, Y0
	VDIVPD  Y9, Y1, Y1
	VDIVPD  Y9, Y2, Y2
	VDIVPD  Y9, Y3, Y3
	VMULPD  Y0, Y0, Y5
	VMULPD  Y1, Y1, Y6
	VMULPD  Y2, Y2, Y7
	VMULPD  Y3, Y3, Y8
	VMOVUPD 0(DI), Y10
	VMOVUPD 32(DI), Y11
	VMOVUPD 64(DI), Y12
	VMOVUPD 96(DI), Y13
	VSUBPD  Y5, Y10, Y10
	VSUBPD  Y6, Y11, Y11
	VSUBPD  Y7, Y12, Y12
	VSUBPD  Y8, Y13, Y13
	VMOVUPD Y10, 0(DI)
	VMOVUPD Y11, 32(DI)
	VMOVUPD Y12, 64(DI)
	VMOVUPD Y13, 96(DI)
	CMPQ    AX, $16
	JB      partial
	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ    $16, BX
	ADDQ    $128, R13
	ADDQ    $128, DI
	JMP     pass

partial:
	CMPQ    AX, $4
	JB      pair
	VMOVUPD Y0, (R10)
	VMOVAPD Y1, Y0
	VMOVAPD Y2, Y1
	VMOVAPD Y3, Y2
	ADDQ    $32, R10
	SUBQ    $4, AX
	JMP     partial

pair:
	CMPQ    AX, $2
	JB      single
	VMOVUPD X0, (R10)
	VEXTRACTF128 $1, Y0, X0
	ADDQ    $16, R10
	SUBQ    $2, AX

single:
	TESTQ AX, AX
	JZ    done
	VMOVSD X0, (R10)

done:
	VZEROUPPER
	RET
