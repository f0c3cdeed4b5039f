#include "textflag.h"

// The AVX kernel of the sumtable body (derivatives.go, sumtableGeneric, whose
// scalar loop is its reference and fallback). One call writes one pattern's
// rows, every category. A projected end is two quartet-wide mat-vecs of
// model.ApplyCols' kernel kept in registers: one YMM accumulator per four
// consecutive k (five for s = 20, one for s = 4), and step a adds
// row a of V (left) or of V^-1 transposed (right) times a broadcast factor,
// a VMULPD and then a VADDPD onto the accumulator from a VXORPD zero, a
// ascending. The left factor is freqs[a]·cl[a], itself a VMULPD of two
// broadcasts; the right one is cr[a]. A table end is its row, loaded as it
// is. Each lane is then
//
//	l_k = 0; l_k += V[0·s+k]·(freqs[0]·cl[0]); …   r_k = 0; r_k += Vi[0·s+k]·cr[0]; …
//	dst[k] = (l_k·r_k)·invCats
//
// rounded after every product and every add, as the scalar loop rounds it.
// No FMA: a fused multiply-add rounds once where the scalar rounds twice.
// At s = 20, where both ends project, their two loops run as one: ten add
// chains in flight. After each category the CLV pointers step by their
// strides (0 for a tip vector or a table row) and dst by one row. The caller
// (sumtable_amd64.go) has checked the shapes; rows bit 0 says l is a table
// row, bit 1 that r is.

// LTERM adds row a of V at byte offset off, times the broadcast factor in
// Y15, to acc; RTERM the same of V^-1 transposed and Y14.
#define LTERM(off, acc, t) \
	VMULPD off(R9)(AX*1), Y15, t; \
	VADDPD t, acc, acc

#define RTERM(off, acc, t) \
	VMULPD off(R10)(AX*1), Y14, t; \
	VADDPD t, acc, acc

// LFACTOR broadcasts freqs[a]·cl[a] into Y15, RFACTOR cr[a] into Y14.
#define LFACTOR \
	VBROADCASTSD (R8)(CX*1), Y15; \
	VBROADCASTSD (SI)(CX*1), Y13; \
	VMULPD       Y13, Y15, Y15

#define RFACTOR \
	VBROADCASTSD (BX)(CX*1), Y14

// PROD writes (l·r)·invCats of one quartet, invCats broadcast in Y15.
#define PROD(l, r, off) \
	VMULPD  r, l, l; \
	VMULPD  Y15, l, l; \
	VMOVUPD l, off(DI)

// func sumtableAVX(dst, l, r, freqs, ev, eviT []float64, ls, rs, cats int, invCats float64, rows int)
TEXT ·sumtableAVX(SB), NOSPLIT, $0-184
	MOVQ dst_base+0(FP), DI
	MOVQ l_base+24(FP), SI
	MOVQ r_base+48(FP), BX
	MOVQ freqs_base+72(FP), R8
	MOVQ freqs_len+80(FP), CX
	MOVQ ev_base+96(FP), R9
	MOVQ eviT_base+120(FP), R10
	MOVQ ls+144(FP), R11
	MOVQ rs+152(FP), R12
	MOVQ cats+160(FP), R13
	MOVQ rows+176(FP), DX
	SHLQ $3, R11 // strides in bytes
	SHLQ $3, R12
	CMPQ CX, $4
	JEQ  cat4

cat20:
	TESTQ DX, DX
	JNZ   part20
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
	XORQ   AX, AX // row a: 160·a bytes
	XORQ   CX, CX // entry a: 8·a bytes

both20:
	LFACTOR
	RFACTOR
	LTERM(0, Y0, Y10)
	RTERM(0, Y5, Y11)
	LTERM(32, Y1, Y12)
	RTERM(32, Y6, Y13)
	LTERM(64, Y2, Y10)
	RTERM(64, Y7, Y11)
	LTERM(96, Y3, Y12)
	RTERM(96, Y8, Y13)
	LTERM(128, Y4, Y10)
	RTERM(128, Y9, Y11)
	ADDQ $160, AX
	ADDQ $8, CX
	CMPQ CX, $160
	JNE  both20
	JMP  prod20

part20:
	TESTQ $1, DX
	JNZ   lrow20
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	XORQ   AX, AX
	XORQ   CX, CX

left20:
	LFACTOR
	LTERM(0, Y0, Y10)
	LTERM(32, Y1, Y11)
	LTERM(64, Y2, Y12)
	LTERM(96, Y3, Y10)
	LTERM(128, Y4, Y11)
	ADDQ $160, AX
	ADDQ $8, CX
	CMPQ CX, $160
	JNE  left20
	JMP  r20

lrow20:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4

r20:
	TESTQ $2, DX
	JNZ   rrow20
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ   AX, AX
	XORQ   CX, CX

right20:
	RFACTOR
	RTERM(0, Y5, Y10)
	RTERM(32, Y6, Y11)
	RTERM(64, Y7, Y12)
	RTERM(96, Y8, Y10)
	RTERM(128, Y9, Y11)
	ADDQ $160, AX
	ADDQ $8, CX
	CMPQ CX, $160
	JNE  right20
	JMP  prod20

rrow20:
	VMOVUPD 0(BX), Y5
	VMOVUPD 32(BX), Y6
	VMOVUPD 64(BX), Y7
	VMOVUPD 96(BX), Y8
	VMOVUPD 128(BX), Y9

prod20:
	VBROADCASTSD invCats+168(FP), Y15
	PROD(Y0, Y5, 0)
	PROD(Y1, Y6, 32)
	PROD(Y2, Y7, 64)
	PROD(Y3, Y8, 96)
	PROD(Y4, Y9, 128)
	ADDQ $160, DI
	ADDQ R11, SI
	ADDQ R12, BX
	DECQ R13
	JNZ  cat20
	VZEROUPPER
	RET

cat4:
	TESTQ $1, DX
	JNZ   lrow4
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX // row a: 32·a bytes
	XORQ   CX, CX // entry a: 8·a bytes

left4:
	LFACTOR
	LTERM(0, Y0, Y10)
	ADDQ $32, AX
	ADDQ $8, CX
	CMPQ CX, $32
	JNE  left4
	JMP  r4

lrow4:
	VMOVUPD 0(SI), Y0

r4:
	TESTQ $2, DX
	JNZ   rrow4
	VXORPD Y5, Y5, Y5
	XORQ   AX, AX
	XORQ   CX, CX

right4:
	RFACTOR
	RTERM(0, Y5, Y11)
	ADDQ $32, AX
	ADDQ $8, CX
	CMPQ CX, $32
	JNE  right4
	JMP  prod4

rrow4:
	VMOVUPD 0(BX), Y5

prod4:
	VBROADCASTSD invCats+168(FP), Y15
	PROD(Y0, Y5, 0)
	ADDQ $32, DI
	ADDQ R11, SI
	ADDQ R12, BX
	DECQ R13
	JNZ  cat4
	VZEROUPPER
	RET
