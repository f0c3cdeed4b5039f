#include "textflag.h"

#include "exp_amd64.h"

// The AVX2 kernel of the 4-state PMatrices (model.go's PMatrix and pmatrix4
// are its reference and its fallback). One YMM register is one category's
// four exponentials, lane k = exp(lambda_k t_c), computed by exp_amd64.h's
// EXP_FMA, four categories as its four chains. The arguments never leave
// registers: t_c = rate_c·t is a scalar multiply and the clamp of PMatrix,
// lambda·t_c one VMULPD. A block entry is then
//
//	P[i][j] = max(0, 0 + a_0·Vi[0][j] + a_1·Vi[1][j] + a_2·Vi[2][j] + a_3·Vi[3][j]),
//	a_k = V[i][k]·e_k,
//
// added k-ascending from +0 with separate VMULPD/VADDPD (no FMA here: pmatrix4
// rounds every product), a_k broadcast to all lanes and row k of V^-1 in a
// register, so lane j is pmatrix4's s_j.

// ARG leaves lambda·t_c in y for category index i: t_c = rates[i]·t (X15)
// clamped as PMatrix clamps (VMAXSD with +0, Y13, as the first source keeps
// -0 and NaN), broadcast and multiplied by lambda (Y14). x is y's low half.
#define ARG(i, x, y) \
	VMULSD (SI)(i*8), X15, x; \
	VMAXSD x, X13, x; \
	VBROADCASTSD x, y; \
	VMULPD Y14, y, y

// ROW writes row off/32 of one category's block from its exponentials e:
// a = V row ⊙ e, then a_k broadcast (VPERMPD) times row k of V^-1 (Y4..Y7),
// summed k-ascending from +0 (Y13) and clamped as clampNeg does (VMAXPD with
// +0 as the first source keeps NaN and -0).
#define ROW(e, off) \
	VMULPD off(R9), e, Y8; \
	VPERMPD $0x00, Y8, Y9; \
	VMULPD Y4, Y9, Y9; \
	VADDPD Y9, Y13, Y10; \
	VPERMPD $0x55, Y8, Y9; \
	VMULPD Y5, Y9, Y9; \
	VADDPD Y9, Y10, Y10; \
	VPERMPD $0xAA, Y8, Y9; \
	VMULPD Y6, Y9, Y9; \
	VADDPD Y9, Y10, Y10; \
	VPERMPD $0xFF, Y8, Y9; \
	VMULPD Y7, Y9, Y9; \
	VADDPD Y9, Y10, Y10; \
	VMAXPD Y10, Y13, Y10; \
	VMOVUPD Y10, off(DI)
#define BLOCK(e) ROW(e, 0); ROW(e, 32); ROW(e, 64); ROW(e, 96); ADDQ $128, DI

// func pmatrices4AVX(dst []float64, l *[4]float64, v, u *[16]float64, rates []float64, t float64) bool
TEXT ·pmatrices4AVX(SB), NOSPLIT, $0-81
	MOVQ l+24(FP), AX
	VMOVUPD (AX), Y14
	VMOVSD t+72(FP), X15
	VXORPD Y13, Y13, Y13
	MOVQ rates_base+48(FP), SI
	MOVQ rates_len+56(FP), CX

	// Every argument of every category inside the guard, before any write.
	VBROADCASTSD argMin<>(SB), Y11
	VBROADCASTSD argMax<>(SB), Y12
	MOVL $15, DX
	XORQ BX, BX

guard:
	ARG(BX, X0, Y0)
	GUARD(Y0, Y11, Y12, Y1, Y2, AX)
	ANDL AX, DX
	INCQ BX
	CMPQ BX, CX
	JLT  guard
	CMPL DX, $15
	JNE  refuse

	MOVQ dst_base+0(FP), DI
	MOVQ v+32(FP), R9
	MOVQ u+40(FP), R10
	XORQ BX, BX

group:
	// Categories BX..BX+3; past the last, a chain repeats category BX and
	// writes nothing.
	LEAQ    1(BX), R11
	CMPQ    R11, CX
	CMOVQGE BX, R11
	LEAQ    2(BX), R12
	CMPQ    R12, CX
	CMOVQGE BX, R12
	LEAQ    3(BX), R13
	CMPQ    R13, CX
	CMOVQGE BX, R13
	ARG(BX, X0, Y0)
	ARG(R11, X1, Y1)
	ARG(R12, X2, Y2)
	ARG(R13, X3, Y3)
	EXP_FMA
	VMOVUPD 0(R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD 64(R10), Y6
	VMOVUPD 96(R10), Y7
	BLOCK(Y0)
	INCQ BX
	CMPQ BX, CX
	JGE  done
	BLOCK(Y1)
	INCQ BX
	CMPQ BX, CX
	JGE  done
	BLOCK(Y2)
	INCQ BX
	CMPQ BX, CX
	JGE  done
	BLOCK(Y3)
	INCQ BX
	CMPQ BX, CX
	JLT  group

done:
	MOVB $1, ret+80(FP)
	VZEROUPPER
	RET

refuse:
	MOVB $0, ret+80(FP)
	VZEROUPPER
	RET
