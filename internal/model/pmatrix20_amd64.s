#include "textflag.h"

// The AVX kernel of the 20-state PMatrices (model.go's pmatrixCols is its
// reference and its fallback): every category's block, column-major, from
// the exponentials e[c·20+k] = exp(lambda_k t_c) (Exps). A category first
// writes ve, row k of which is e_k times row k of V^T (EigenVecsT): pmatrixCols'
// veT, five VMULPD a row. Then its columns go two at a time, j and j+1 in ten
// accumulators (five quartets of rows each: one column's five chains are
// add-latency-bound, two columns' ten are not). Step k adds ve[k][i..i+3]·
// V^-1[k][j] to a quartet, VMULPD with V^-1[k][j] broadcast from row j of
// InvVecsT as its first source and then VADDPD onto the accumulator, from a
// VXORPD zero: the operations and operand order of ApplyCols' kernel, no FMA,
// so each lane is pmatrixCols' sum. The clamp is VMAXPD with +0 as the first
// source, which keeps NaN and -0 as clampNeg does.

// MADD adds ve row quartet off·(Y10, Y11) to the accumulators a and b.
#define MADD(off, a, b) \
	VMULPD off(BX), Y10, Y12; \
	VADDPD Y12, a, a; \
	VMULPD off(BX), Y11, Y13; \
	VADDPD Y13, b, b

// func pmatrices20AVX(dst, e, vT, uT []float64, ve *[400]float64)
TEXT ·pmatrices20AVX(SB), NOSPLIT, $0-104
	MOVQ   dst_base+0(FP), DI
	MOVQ   e_base+24(FP), SI
	MOVQ   e_len+32(FP), CX
	MOVQ   vT_base+48(FP), R8
	MOVQ   uT_base+72(FP), R9
	MOVQ   ve+96(FP), R10
	VXORPD Y15, Y15, Y15

category:
	// ve = diag(e_c)·V^T, row by row.
	MOVQ R8, AX
	MOVQ R10, BX
	MOVQ $20, DX

ve:
	VBROADCASTSD (SI), Y0
	VMULPD       0(AX), Y0, Y1
	VMULPD       32(AX), Y0, Y2
	VMULPD       64(AX), Y0, Y3
	VMULPD       96(AX), Y0, Y4
	VMULPD       128(AX), Y0, Y5
	VMOVUPD      Y1, 0(BX)
	VMOVUPD      Y2, 32(BX)
	VMOVUPD      Y3, 64(BX)
	VMOVUPD      Y4, 96(BX)
	VMOVUPD      Y5, 128(BX)
	ADDQ         $160, AX
	ADDQ         $160, BX
	ADDQ         $8, SI
	DECQ         DX
	JNZ          ve

	// Columns j, j+1 of the block: AX walks rows j, j+1 of InvVecsT.
	MOVQ R9, AX
	MOVQ $10, DX

pair:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	MOVQ   R10, BX
	XORQ   R11, R11

k:
	VBROADCASTSD (AX)(R11*1), Y10
	VBROADCASTSD 160(AX)(R11*1), Y11
	MADD(0, Y0, Y5)
	MADD(32, Y1, Y6)
	MADD(64, Y2, Y7)
	MADD(96, Y3, Y8)
	MADD(128, Y4, Y9)
	ADDQ $160, BX
	ADDQ $8, R11
	CMPQ R11, $160
	JLT  k

	VMAXPD  Y0, Y15, Y0
	VMAXPD  Y1, Y15, Y1
	VMAXPD  Y2, Y15, Y2
	VMAXPD  Y3, Y15, Y3
	VMAXPD  Y4, Y15, Y4
	VMAXPD  Y5, Y15, Y5
	VMAXPD  Y6, Y15, Y6
	VMAXPD  Y7, Y15, Y7
	VMAXPD  Y8, Y15, Y8
	VMAXPD  Y9, Y15, Y9
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	ADDQ    $320, DI
	ADDQ    $320, AX
	DECQ    DX
	JNZ     pair

	SUBQ $20, CX
	JNZ  category
	VZEROUPPER
	RET
