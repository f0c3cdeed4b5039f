#include "textflag.h"

// The AVX kernel of the derivative body (derivatives.go, derivativeGeneric;
// the per-pattern loop of reference_test.go is its reference). A lane is a
// pattern: a quartet is four consecutive patterns of the run, rows
// p, p+1, p+2, p+3 of the pattern-major sumtable (cs entries each), and two
// quartets (A, B) are in flight, six accumulators, lane for lane the scalar
//
//	l += a; l1 += a·g1[k]; l2 += a·g2[k],  a = row[k]·e[k],
//
// k ascending from a VXORPD +0, every product a VMULPD and every sum a
// VADDPD onto its accumulator (no FMA), so each lane rounds as the scalar
// sums round. Four k at a time the rows come in as 128-bit halves (VMOVUPD,
// VINSERTF128: rows p and p+2 in one register, p+1 and p+3 in another) and
// VUNPCKLPD/VUNPCKHPD finish the 4×4 transpose, one register per k with the
// four patterns in its lanes; e[k], g1[k], g2[k] are broadcast. A lone last
// quartet runs as A with B repeating it, and B stores nothing. The caller
// (derivative_amd64.go) has checked the shapes; cs is a multiple of four.

// LOAD4 transposes entries k..k+3 of the quartet whose first row is at base
// (the others at base+R8, base+2·R8, base+R12 = base+3·R8): the rows go into
// y0..y3 (x0..x3 their low halves), and k, k+1, k+2, k+3 come out in t, y1,
// y0, y3. y2 is free afterwards.
#define LOAD4(base, x0, y0, x1, y1, x2, y2, x3, y3, t) \
	VMOVUPD     (base), x0; \
	VINSERTF128 $1, (base)(R8*2), y0, y0; \
	VMOVUPD     (base)(R8*1), x1; \
	VINSERTF128 $1, (base)(R12*1), y1, y1; \
	VMOVUPD     16(base), x2; \
	VINSERTF128 $1, 16(base)(R8*2), y2, y2; \
	VMOVUPD     16(base)(R8*1), x3; \
	VINSERTF128 $1, 16(base)(R12*1), y3, y3; \
	VUNPCKLPD   y1, y0, t; \
	VUNPCKHPD   y1, y0, y1; \
	VUNPCKLPD   y3, y2, y0; \
	VUNPCKHPD   y3, y2, y3

// TERM folds entry k (byte offset AX+off) of quartets A and B, transposed
// into a and b, into the accumulators Y8..Y10 (A) and Y11..Y13 (B).
#define TERM(a, b, off) \
	VBROADCASTSD off(R9)(AX*1), Y15; \
	VMULPD       Y15, a, a; \
	VMULPD       Y15, b, b; \
	VADDPD       a, Y8, Y8; \
	VADDPD       b, Y11, Y11; \
	VBROADCASTSD off(R10)(AX*1), Y15; \
	VMULPD       Y15, a, Y6; \
	VADDPD       Y6, Y9, Y9; \
	VMULPD       Y15, b, Y6; \
	VADDPD       Y6, Y12, Y12; \
	VBROADCASTSD off(R11)(AX*1), Y15; \
	VMULPD       Y15, a, Y6; \
	VADDPD       Y6, Y10, Y10; \
	VMULPD       Y15, b, Y6; \
	VADDPD       Y6, Y13, Y13

// func derivQuartetsAVX(out, sum, e, g1, g2 []float64, quartets int)
TEXT ·derivQuartetsAVX(SB), NOSPLIT, $0-128
	MOVQ out_base+0(FP), DI
	MOVQ sum_base+24(FP), BX
	MOVQ e_base+48(FP), R9
	MOVQ e_len+56(FP), DX
	MOVQ g1_base+72(FP), R10
	MOVQ g2_base+96(FP), R11
	MOVQ quartets+120(FP), CX
	SHLQ $3, DX                // a row: cs entries
	MOVQ DX, R8                // one pattern to the next
	LEAQ (R8)(R8*2), R12

pair:
	MOVQ BX, SI
	LEAQ (BX)(R8*4), R13
	CMPQ CX, $2
	JGE  both
	MOVQ BX, R13

both:
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	XORQ   AX, AX

k:
	LOAD4(SI, X0, Y0, X1, Y1, X2, Y2, X3, Y3, Y14)
	LOAD4(R13, X4, Y4, X5, Y5, X6, Y6, X7, Y7, Y2)
	TERM(Y14, Y2, 0)
	TERM(Y1, Y5, 8)
	TERM(Y0, Y4, 16)
	TERM(Y3, Y7, 24)
	ADDQ $32, SI
	ADDQ $32, R13
	ADDQ $32, AX
	CMPQ AX, DX
	JLT  k

	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	CMPQ    CX, $2
	JLT     done
	VMOVUPD Y11, 96(DI)
	VMOVUPD Y12, 128(DI)
	VMOVUPD Y13, 160(DI)
	ADDQ    $192, DI
	LEAQ    (BX)(R8*8), BX
	SUBQ    $2, CX
	JNZ     pair

done:
	VZEROUPPER
	RET
