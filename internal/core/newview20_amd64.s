#include "textflag.h"

// The AVX kernels of the 20-state newview body (newview.go, newviewGeneric,
// whose scalar loop is their reference and fallback). One call writes one
// pattern's CLV rows, every category. A P application is model.ApplyCols'
// kernel kept in registers: five YMM accumulators hold the twenty outputs of
// one category, and step a adds row a of the category's column-major P block
// (400 entries, 3200 bytes; row a holds P[k][a] for k ascending) times
// x[a] broadcast, a VMULPD and then a VADDPD onto the accumulator from a
// VXORPD zero, a ascending. Each lane is then
//
//	s_k = 0; s_k += P[k][0]·x[0]; s_k += P[k][1]·x[1]; …
//
// rounded after every product and every add, as the scalar loop rounds it.
// No FMA: a fused multiply-add rounds once where the scalar rounds twice.
// One P application's five chains wait on add latency, so each kernel runs
// two at once, ten chains in Y0-Y9:
//
//   - newviewPairAVX: both children's P applications of one category, then
//     one VMULPD a quartet forms the product left·right;
//   - newviewRowAVX: the inner child's P applications of two consecutive
//     categories, each then multiplied by its category's table row,
//     row·(P·x); an odd last category runs alone, five chains.
//
// After each category the vector pointers step by their strides (0 for a
// tip vector), a P block by 3200 bytes, a table row by 160 and dst by one
// plane. The caller (newview20_amd64.go, newviewRowsFit) has checked that
// every read and write stays inside its slice.

// TERM adds row a of the P block at base, byte offset off, times the
// broadcast x[a] in x, to acc; AX is row a's offset, 160·a bytes.
#define TERM(base, off, x, acc, t) \
	VMULPD off(base)(AX*1), x, t; \
	VADDPD t, acc, acc

// ZERO10 and ZERO5 clear the accumulators.
#define ZERO5 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4

#define ZERO10 \
	ZERO5; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y9, Y9, Y9

// ROW multiplies acc by the table row quartet at off(row), the row first:
// row·(P·x), as the scalar loop writes it.
#define ROW(off, row, acc) \
	VMOVUPD off(row), Y12; \
	VMULPD  acc, Y12, acc

// func newviewPairAVX(dst, pa, xa, pb, xb []float64, stride, as, bs, cats int)
TEXT ·newviewPairAVX(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ pa_base+24(FP), R8
	MOVQ xa_base+48(FP), SI
	MOVQ pb_base+72(FP), R9
	MOVQ xb_base+96(FP), BX
	MOVQ stride+120(FP), R11
	MOVQ as+128(FP), R12
	MOVQ bs+136(FP), R13
	MOVQ cats+144(FP), DX
	SHLQ $3, R11 // strides in bytes
	SHLQ $3, R12
	SHLQ $3, R13

pcat:
	ZERO10
	XORQ AX, AX // row a: 160·a bytes
	XORQ CX, CX // entry a: 8·a bytes

pterm:
	VBROADCASTSD (SI)(CX*1), Y10
	VBROADCASTSD (BX)(CX*1), Y11
	TERM(R8, 0, Y10, Y0, Y12)
	TERM(R9, 0, Y11, Y5, Y13)
	TERM(R8, 32, Y10, Y1, Y14)
	TERM(R9, 32, Y11, Y6, Y15)
	TERM(R8, 64, Y10, Y2, Y12)
	TERM(R9, 64, Y11, Y7, Y13)
	TERM(R8, 96, Y10, Y3, Y14)
	TERM(R9, 96, Y11, Y8, Y15)
	TERM(R8, 128, Y10, Y4, Y12)
	TERM(R9, 128, Y11, Y9, Y13)
	ADDQ $160, AX
	ADDQ $8, CX
	CMPQ CX, $160
	JNE  pterm
	VMULPD  Y5, Y0, Y0
	VMULPD  Y6, Y1, Y1
	VMULPD  Y7, Y2, Y2
	VMULPD  Y8, Y3, Y3
	VMULPD  Y9, Y4, Y4
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	ADDQ    $3200, R8
	ADDQ    $3200, R9
	ADDQ    R11, DI
	ADDQ    R12, SI
	ADDQ    R13, BX
	DECQ    DX
	JNZ     pcat
	VZEROUPPER
	RET

// func newviewRowAVX(dst, row, pm, x []float64, stride, cats int)
TEXT ·newviewRowAVX(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ pm_base+48(FP), R8
	MOVQ x_base+72(FP), BX
	MOVQ stride+96(FP), R11
	MOVQ cats+104(FP), DX
	SHLQ $3, R11 // the plane stride in bytes, of dst and x alike

rpair:
	CMPQ DX, $2
	JLT  rone
	ZERO10
	LEAQ (BX)(R11*1), R10 // x of the second category
	XORQ AX, AX
	XORQ CX, CX

rpterm:
	VBROADCASTSD (BX)(CX*1), Y10
	VBROADCASTSD (R10)(CX*1), Y11
	TERM(R8, 0, Y10, Y0, Y12)
	TERM(R8, 3200, Y11, Y5, Y13)
	TERM(R8, 32, Y10, Y1, Y14)
	TERM(R8, 3232, Y11, Y6, Y15)
	TERM(R8, 64, Y10, Y2, Y12)
	TERM(R8, 3264, Y11, Y7, Y13)
	TERM(R8, 96, Y10, Y3, Y14)
	TERM(R8, 3296, Y11, Y8, Y15)
	TERM(R8, 128, Y10, Y4, Y12)
	TERM(R8, 3328, Y11, Y9, Y13)
	ADDQ $160, AX
	ADDQ $8, CX
	CMPQ CX, $160
	JNE  rpterm
	ROW(0, SI, Y0)
	ROW(32, SI, Y1)
	ROW(64, SI, Y2)
	ROW(96, SI, Y3)
	ROW(128, SI, Y4)
	ROW(160, SI, Y5)
	ROW(192, SI, Y6)
	ROW(224, SI, Y7)
	ROW(256, SI, Y8)
	ROW(288, SI, Y9)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 0(DI)(R11*1)
	VMOVUPD Y6, 32(DI)(R11*1)
	VMOVUPD Y7, 64(DI)(R11*1)
	VMOVUPD Y8, 96(DI)(R11*1)
	VMOVUPD Y9, 128(DI)(R11*1)
	ADDQ    $6400, R8
	ADDQ    $320, SI
	LEAQ    (DI)(R11*2), DI
	LEAQ    (BX)(R11*2), BX
	SUBQ    $2, DX
	JMP     rpair

rone:
	TESTQ DX, DX
	JZ    rdone
	ZERO5
	XORQ  AX, AX
	XORQ  CX, CX

roterm:
	VBROADCASTSD (BX)(CX*1), Y10
	TERM(R8, 0, Y10, Y0, Y12)
	TERM(R8, 32, Y10, Y1, Y13)
	TERM(R8, 64, Y10, Y2, Y14)
	TERM(R8, 96, Y10, Y3, Y15)
	TERM(R8, 128, Y10, Y4, Y12)
	ADDQ $160, AX
	ADDQ $8, CX
	CMPQ CX, $160
	JNE  roterm
	ROW(0, SI, Y0)
	ROW(32, SI, Y1)
	ROW(64, SI, Y2)
	ROW(96, SI, Y3)
	ROW(128, SI, Y4)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)

rdone:
	VZEROUPPER
	RET
