#include "textflag.h"

// The AVX2 kernel of the 4-state PMatrices (model.go's PMatrix and pmatrix4
// are its reference and its fallback). One YMM register is one category's
// four exponentials, lane k = exp(lambda_k t_c), and the exponential is the
// toolchain's (math/exp_amd64.s, after Shibata, ISC'10) run lane by lane: the
// same operations on the same operands, so each lane rounds as math.Exp's
// scalar code rounds. That code has two forms, chosen by whether the CPU has
// FMA; this kernel is the FMA one, and pmatrix4_amd64.go runs it only where
// it reproduces math.Exp on the running host. Four categories run as four
// interleaved chains, because one chain is latency-bound. The
// arguments never leave registers: t_c = rate_c·t is a scalar multiply and the
// clamp of PMatrix, lambda·t_c one VMULPD. A block entry is then
//
//	P[i][j] = max(0, 0 + a_0·Vi[0][j] + a_1·Vi[1][j] + a_2·Vi[2][j] + a_3·Vi[3][j]),
//	a_k = V[i][k]·e_k,
//
// added k-ascending from +0 with separate VMULPD/VADDPD (no FMA here: pmatrix4
// rounds every product), a_k broadcast to all lanes and row k of V^-1 in a
// register, so lane j is pmatrix4's s_j. Every instruction is VEX-encoded: a
// legacy-SSE instruction after a 256-bit one stalls on the dirty upper halves.

// VEC4 is a 32-byte constant: val in all four lanes.
#define VEC4(name, val) \
	DATA name<>+0(SB)/8, val; \
	DATA name<>+8(SB)/8, val; \
	DATA name<>+16(SB)/8, val; \
	DATA name<>+24(SB)/8, val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// exp_amd64.s's constants.
VEC4(log2e, $1.4426950408889634073599246810018920)
VEC4(ln2u, $0.69314718055966295651160180568695068359375)
VEC4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
VEC4(sixteenth, $0.0625)
VEC4(c64, $2.4801587301587301587e-5)
VEC4(c56, $1.9841269841269841270e-4)
VEC4(c48, $1.3888888888888888889e-3)
VEC4(c40, $8.3333333333333333333e-3)
VEC4(c32, $4.1666666666666666667e-2)
VEC4(c24, $1.6666666666666666667e-1)
VEC4(half, $0.5)
VEC4(one, $1.0)
VEC4(two, $2.0)
VEC4(bias, $0x3FF)

// The guard: on [-700, 700] exp_amd64.s takes neither its overflow nor its
// subnormal branch (the exponent k = round(x·log2 e) stays within ±1010), so
// its result is the straight-line sequence below. NaN is outside.
DATA argMin<>+0(SB)/8, $-700.0
GLOBL argMin<>(SB), RODATA|NOPTR, $8
DATA argMax<>+0(SB)/8, $700.0
GLOBL argMax<>(SB), RODATA|NOPTR, $8

// ARG leaves lambda·t_c in y for category index i: t_c = rates[i]·t (X15)
// clamped as PMatrix clamps (VMAXSD with +0, Y13, as the first source keeps
// -0 and NaN), broadcast and multiplied by lambda (Y14). x is y's low half.
#define ARG(i, x, y) \
	VMULSD (SI)(i*8), X15, x; \
	VMAXSD x, X13, x; \
	VBROADCASTSD x, y; \
	VMULPD Y14, y, y

// The four chains: x and then the reduced argument r in Y0..Y3, k and then
// the polynomial p in Y4..Y7, the scale 2^k in Y8..Y11.
#define ON_A(op, m) op m, Y0, Y0; op m, Y1, Y1; op m, Y2, Y2; op m, Y3, Y3
#define A_BY_P(op) op Y4, Y0, Y0; op Y5, Y1, Y1; op Y6, Y2, Y2; op Y7, Y3, Y3
#define A_BY_S VMULPD Y8, Y0, Y0; VMULPD Y9, Y1, Y1; VMULPD Y10, Y2, Y2; VMULPD Y11, Y3, Y3
#define P_IS_A_PLUS(m) VADDPD m, Y0, Y4; VADDPD m, Y1, Y5; VADDPD m, Y2, Y6; VADDPD m, Y3, Y7
#define P_IS_A_TIMES(m) VMULPD m, Y0, Y4; VMULPD m, Y1, Y5; VMULPD m, Y2, Y6; VMULPD m, Y3, Y7

// SPLIT: k = round(x·log2 e) (VCVTPD2DQ rounds as CVTSD2SL does, under MXCSR)
// as a double in the p register, 2^k = (k + 0x3FF) << 52 in the scale one.
#define SPLIT1(p, s, xs) \
	VCVTPD2DQY p, xs; \
	VCVTDQ2PD xs, p; \
	VPMOVSXDQ xs, s; \
	VPADDQ bias<>(SB), s, s; \
	VPSLLQ $52, s, s
#define SPLIT \
	P_IS_A_TIMES(log2e<>(SB)); \
	SPLIT1(Y4, Y8, X8); \
	SPLIT1(Y5, Y9, X9); \
	SPLIT1(Y6, Y10, X10); \
	SPLIT1(Y7, Y11, X11)

// Where exp_amd64.s's FMA form fuses (VFNMADD231SD in the reduction,
// VFMADD213SD in the polynomial and the last squaring step), so does this.
#define REDUCE_FMA(m) \
	VFNMADD231PD m, Y4, Y0; \
	VFNMADD231PD m, Y5, Y1; \
	VFNMADD231PD m, Y6, Y2; \
	VFNMADD231PD m, Y7, Y3
#define HORNER_FMA(m) \
	VFMADD213PD m, Y0, Y4; \
	VFMADD213PD m, Y1, Y5; \
	VFMADD213PD m, Y2, Y6; \
	VFMADD213PD m, Y3, Y7
#define EXP_FMA \
	SPLIT; \
	REDUCE_FMA(ln2u<>(SB)); \
	REDUCE_FMA(ln2l<>(SB)); \
	ON_A(VMULPD, sixteenth<>(SB)); \
	VMOVUPD c64<>(SB), Y4; \
	VMOVUPD Y4, Y5; \
	VMOVUPD Y4, Y6; \
	VMOVUPD Y4, Y7; \
	HORNER_FMA(c56<>(SB)); \
	HORNER_FMA(c48<>(SB)); \
	HORNER_FMA(c40<>(SB)); \
	HORNER_FMA(c32<>(SB)); \
	HORNER_FMA(c24<>(SB)); \
	HORNER_FMA(half<>(SB)); \
	HORNER_FMA(one<>(SB)); \
	A_BY_P(VMULPD); \
	P_IS_A_PLUS(two<>(SB)); A_BY_P(VMULPD); \
	P_IS_A_PLUS(two<>(SB)); A_BY_P(VMULPD); \
	P_IS_A_PLUS(two<>(SB)); A_BY_P(VMULPD); \
	P_IS_A_PLUS(two<>(SB)); \
	VFMADD213PD one<>(SB), Y4, Y0; \
	VFMADD213PD one<>(SB), Y5, Y1; \
	VFMADD213PD one<>(SB), Y6, Y2; \
	VFMADD213PD one<>(SB), Y7, Y3; \
	A_BY_S

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
	VCMPPD $0x1D, Y11, Y0, Y1 // x >= -700, false on NaN
	VCMPPD $0x12, Y12, Y0, Y2 // x <= 700, false on NaN
	VANDPD Y2, Y1, Y1
	VMOVMSKPD Y1, AX
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
