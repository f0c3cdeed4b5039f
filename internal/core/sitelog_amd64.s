#include "textflag.h"

// The 4-lane natural logarithm of the evaluate site pass (evaluate.go,
// SiteLogs). Lane k runs the instruction sequence of the toolchain's
// math.Log on amd64 ($GOROOT/src/math/log_amd64.s, which math.Log always
// calls there) on entry k of the quartet: VMULPD / VADDPD / VSUBPD /
// VDIVPD where it has MULSD / ADDSD / SUBSD / DIVSD, the same constants, the
// same operand pairs, and no FMA, so each lane rounds as the scalar does
// under Go's MXCSR and is math.Log(x) bit for bit. Its frexp is the scalar's
// too: k = (bits >> 52) - 0x3FE on the raw exponent field (subnormals
// included, as there), as VPSRLQ / VPSUBQ, the four low dwords gathered by
// VPERMD and converted exactly by VCVTDQ2PD; f1 = mantissa | 0.5. The √2/2
// test is the scalar's CMPSD predicate 5 (not less than) with √2/2 as its
// first operand. The special lanes take the scalar's early returns, in its
// order of precedence: ±0 gives -Inf, a negative sign (-Inf and negative NaN
// included) the scalar's NaN, and +Inf or a positive NaN the input itself.

#define HSqrt2 7.07106781186547524401e-01 // sqrt(2)/2
#define Ln2Hi  6.93147180369123816490e-01 // 0x3fe62e42fee00000
#define Ln2Lo  1.90821492927058770002e-10 // 0x3dea39ef35793c76
#define L1     6.666666666666735130e-01   // 0x3FE5555555555593
#define L2     3.999999999940941908e-01   // 0x3FD999999997FA04
#define L3     2.857142874366239149e-01   // 0x3FD2492494229359
#define L4     2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
#define L5     1.818357216161805012e-01   // 0x3FC7466496CB03DE
#define L6     1.531383769920937332e-01   // 0x3FC39A09D078C69F
#define L7     1.479819860511658591e-01   // 0x3FC2F112DF3E5244

// QUAD defines name<> as four copies of the 8-byte value v: one YMM operand.
#define QUAD(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(logHSqrt2, $HSqrt2)
QUAD(logLn2Hi, $Ln2Hi)
QUAD(logLn2Lo, $Ln2Lo)
QUAD(logL1, $L1)
QUAD(logL2, $L2)
QUAD(logL3, $L3)
QUAD(logL4, $L4)
QUAD(logL5, $L5)
QUAD(logL6, $L6)
QUAD(logL7, $L7)
QUAD(logHalf, $0.5)
QUAD(logOne, $1.0)
QUAD(logTwo, $2.0)
QUAD(logMant, $0x000FFFFFFFFFFFFF)
QUAD(logAbs, $0x7FFFFFFFFFFFFFFF)
QUAD(logBias, $0x3FE)
QUAD(logMaxFinite, $0x7FEFFFFFFFFFFFFF)
QUAD(logNaN, $0x7FF8000000000001)
QUAD(logNegInf, $0xFFF0000000000000)

// logLow gathers the low dword of each qword into the low 128 bits (VPERMD).
DATA logLow<>+0(SB)/8, $0x0000000200000000
DATA logLow<>+8(SB)/8, $0x0000000600000004
DATA logLow<>+16(SB)/8, $0
DATA logLow<>+24(SB)/8, $0
GLOBL logLow<>(SB), RODATA|NOPTR, $32

// func logAVX(x []float64)
TEXT ·logAVX(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	JZ   logDone
	VMOVDQU logLow<>(SB), Y8
	VMOVUPD logHSqrt2<>(SB), Y9

logLoop:
	VMOVUPD (SI), Y0 // x
	// k := float64(exponent - 0x3FE); f1 := mantissa | 0.5
	VPSRLQ    $52, Y0, Y1
	VPSUBQ    logBias<>(SB), Y1, Y1
	VPERMD    Y1, Y8, Y1
	VCVTDQ2PD X1, Y1
	VANDPD    logMant<>(SB), Y0, Y2
	VORPD     logHalf<>(SB), Y2, Y2
	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }
	VCMPPD $5, Y2, Y9, Y3
	VANDPD logOne<>(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD logOne<>(SB), Y3, Y3
	VMULPD Y3, Y2, Y2
	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD logOne<>(SB), Y2, Y2
	VADDPD logTwo<>(SB), Y2, Y4
	VDIVPD Y4, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4
	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	// hfsq := 0.5 * f * f
	VMULPD logHalf<>(SB), Y2, Y7
	VMULPD Y2, Y7, Y7
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y2, Y7, Y7
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y7, Y1, Y1
	// The special lanes, lowest precedence first: +Inf and positive NaN,
	// then negative, then ±0.
	VPAND     logAbs<>(SB), Y0, Y4
	VPXOR     Y5, Y5, Y5
	VPCMPEQQ  Y5, Y4, Y4
	VPCMPGTQ  Y0, Y5, Y5
	VPCMPGTQ  logMaxFinite<>(SB), Y0, Y6
	VBLENDVPD Y6, Y0, Y1, Y1
	VBLENDVPD Y5, logNaN<>(SB), Y1, Y1
	VBLENDVPD Y4, logNegInf<>(SB), Y1, Y1
	VMOVUPD   Y1, (SI)
	ADDQ      $32, SI
	DECQ      CX
	JNZ       logLoop

logDone:
	VZEROUPPER
	RET
