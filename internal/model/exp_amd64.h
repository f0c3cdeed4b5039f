// The 4-lane exponential every AVX2 kernel of this package runs (pmatrices4AVX
// in pmatrix4_amd64.s, expsAVX in exps_amd64.s): one copy, #included. It is
// the toolchain's (math/exp_amd64.s, after Shibata, ISC'10) run lane by lane,
// the same operations on the same operands, so each lane rounds as math.Exp's
// scalar code rounds. That code has two forms, chosen by whether the CPU has
// FMA; this is the FMA one, and pmatrix4_amd64.go runs it only where it
// reproduces math.Exp on the running host (hostPMatrix). Four quartets run as
// four interleaved chains, because one chain is latency-bound: EXP_FMA takes
// the arguments in Y0..Y3 and leaves the exponentials there, and uses Y4..Y11
// (nothing else) as scratch. Every instruction is VEX-encoded: a legacy-SSE
// instruction after a 256-bit one stalls on the dirty upper halves.

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
// its result is the straight-line sequence below. NaN is outside. A kernel
// writes a quartet only where all four lanes are inside (GUARD).
DATA argMin<>+0(SB)/8, $-700.0
GLOBL argMin<>(SB), RODATA|NOPTR, $8
DATA argMax<>+0(SB)/8, $700.0
GLOBL argMax<>(SB), RODATA|NOPTR, $8

// GUARD sets the low four bits of r to which lanes of x lie in [lo, hi]
// (argMin and argMax broadcast), using t1 and t2.
#define GUARD(x, lo, hi, t1, t2, r) \
	VCMPPD $0x1D, lo, x, t1; \
	VCMPPD $0x12, hi, x, t2; \
	VANDPD t2, t1, t1; \
	VMOVMSKPD t1, r

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
