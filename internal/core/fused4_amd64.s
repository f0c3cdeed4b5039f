#include "textflag.h"

// The AVX category-plane kernels of newviewFused4 (fused4.go, whose scalar
// loops they replace on hosts with AVX). One YMM register is one
// pattern-category quartet: lane k holds state k and computes exactly the
// scalar expression for it, with VMULPD/VADDPD rounding each lane as
// MULSD/ADDSD round the scalar, in the same b-ascending, left-associated add
// order. No FMA, ever: a fused multiply-add rounds once where the scalar
// rounds twice. The P block is transposed into columns once per call (lane k
// of column b is P[k][b]), so a side's P application is
//
//	acc = col0·a0; acc += col1·a1; acc += col2·a2; acc += col3·a3
//
// with a_b broadcast to all lanes. The scaling predicate of small4 (every
// lane strictly inside (-2^-256, 2^-256); NaN is not) is an and-mask, an
// ordered less-than and a VMOVMSKPD == 0xF, folded into the pattern's flag
// in the same sweep. Callers (fused4_amd64.go) have checked every CLV, row
// and flag index the run touches; table rows are indexed by a tip code,
// which is data, so each is checked here and the kernel stops at the first
// that would leave the table.

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

DATA minLikelihood<>+0(SB)/8, $0x2ff0000000000000 // 2^-256
GLOBL minLikelihood<>(SB), RODATA|NOPTR, $8

// COLUMNS loads the row-major 4x4 block at p and leaves its columns in
// c0..c3 (lane k of cb = P[k][b]); t0, t1 are clobbered.
#define COLUMNS(p, c0, c1, c2, c3, t0, t1) \
	VMOVUPD 0(p), c0; \
	VMOVUPD 32(p), c1; \
	VMOVUPD 64(p), c2; \
	VMOVUPD 96(p), c3; \
	VUNPCKLPD c1, c0, t0; \
	VUNPCKHPD c1, c0, t1; \
	VUNPCKLPD c3, c2, c0; \
	VUNPCKHPD c3, c2, c1; \
	VPERM2F128 $0x31, c0, t0, c2; \
	VPERM2F128 $0x31, c1, t1, c3; \
	VPERM2F128 $0x20, c0, t0, c0; \
	VPERM2F128 $0x20, c1, t1, c1

// APPLY leaves P·x in acc for the quartet x at (x) and the columns c0..c3,
// accumulated b-ascending; t is clobbered.
#define APPLY(x, c0, c1, c2, c3, acc, t) \
	VBROADCASTSD 0(x), acc; \
	VMULPD acc, c0, acc; \
	VBROADCASTSD 8(x), t; \
	VMULPD t, c1, t; \
	VADDPD t, acc, acc; \
	VBROADCASTSD 16(x), t; \
	VMULPD t, c2, t; \
	VADDPD t, acc, acc; \
	VBROADCASTSD 24(x), t; \
	VMULPD t, c3, t; \
	VADDPD t, acc, acc

// FLAG folds "all four lanes of v below 2^-256 in magnitude" into the flag
// byte at (flag): first (a register or memory byte, 1 on category 0, else 0)
// makes it a store, otherwise an and. Y12 holds the abs mask, Y13 2^-256;
// predicate 0x11 is less-than, ordered (false on NaN), non-signalling.
// t, AX and tmp are clobbered.
#define FLAG(v, t, flag, first, tmp) \
	VANDPD Y12, v, t; \
	VCMPPD $0x11, Y13, t, t; \
	VMOVMSKPD t, AX; \
	MOVBLZX (flag), tmp; \
	ORB first, tmp; \
	CMPL AX, $15; \
	SETEQ AL; \
	ANDB AL, tmp; \
	MOVB tmp, (flag)

// func innerPlaneAVX(d, xa, xb, pa, pb []float64, small []bool, j0, n, step int, first bool)
TEXT ·innerPlaneAVX(SB), NOSPLIT, $0-169
	MOVQ pa_base+72(FP), AX
	COLUMNS(AX, Y0, Y1, Y2, Y3, Y8, Y9)
	MOVQ pb_base+96(FP), AX
	COLUMNS(AX, Y4, Y5, Y6, Y7, Y8, Y9)
	VBROADCASTSD absMask<>(SB), Y12
	VBROADCASTSD minLikelihood<>(SB), Y13
	MOVQ j0+144(FP), R8
	MOVQ R8, AX
	SHLQ $5, AX
	MOVQ d_base+0(FP), DI
	ADDQ AX, DI
	MOVQ xa_base+24(FP), SI
	ADDQ AX, SI
	MOVQ xb_base+48(FP), DX
	ADDQ AX, DX
	ADDQ small_base+120(FP), R8
	MOVQ step+160(FP), R10
	MOVQ R10, R9
	SHLQ $5, R9
	MOVBLZX first+168(FP), R11
	MOVQ n+152(FP), CX
	TESTQ CX, CX
	JLE innerDone

innerLoop:
	APPLY(SI, Y0, Y1, Y2, Y3, Y8, Y9)
	APPLY(DX, Y4, Y5, Y6, Y7, Y10, Y11)
	VMULPD Y10, Y8, Y8
	VMOVUPD Y8, 0(DI)
	FLAG(Y8, Y9, R8, R11, BX)
	ADDQ R9, DI
	ADDQ R9, SI
	ADDQ R9, DX
	ADDQ R10, R8
	DECQ CX
	JNZ innerLoop

innerDone:
	VZEROUPPER
	RET

// func tipInnerPlaneAVX(d, x, tab []float64, row []byte, p []float64, small []bool, j0, n, step, cs int, first bool) int
TEXT ·tipInnerPlaneAVX(SB), NOSPLIT, $0-192
	MOVQ p_base+96(FP), AX
	COLUMNS(AX, Y0, Y1, Y2, Y3, Y8, Y9)
	VBROADCASTSD absMask<>(SB), Y12
	VBROADCASTSD minLikelihood<>(SB), Y13
	MOVQ j0+144(FP), R8
	MOVQ R8, AX
	SHLQ $5, AX
	MOVQ d_base+0(FP), DI
	ADDQ AX, DI
	MOVQ x_base+24(FP), SI
	ADDQ AX, SI
	MOVQ row_base+72(FP), DX
	ADDQ R8, DX
	ADDQ small_base+120(FP), R8
	MOVQ tab_base+48(FP), BX
	MOVQ tab_len+56(FP), R12
	MOVQ cs+168(FP), R13
	MOVQ step+160(FP), R11
	MOVQ R11, R9
	SHLQ $5, R9
	MOVQ n+152(FP), CX
	TESTQ CX, CX
	JLE tipInnerDone

tipInnerLoop:
	MOVBQZX (DX), AX
	IMULQ R13, AX
	LEAQ 4(AX), R10
	CMPQ R10, R12
	JGT tipInnerDone
	APPLY(SI, Y0, Y1, Y2, Y3, Y8, Y9)
	VMULPD (BX)(AX*8), Y8, Y8
	VMOVUPD Y8, 0(DI)
	FLAG(Y8, Y9, R8, first+176(FP), R10)
	ADDQ R9, DI
	ADDQ R9, SI
	ADDQ R11, DX
	ADDQ R11, R8
	DECQ CX
	JNZ tipInnerLoop

tipInnerDone:
	MOVQ n+152(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+184(FP)
	VZEROUPPER
	RET

// func tipTipPlaneAVX(d, ta, tb []float64, ra, rb []byte, small []bool, j0, n, step, cs int, first bool) int
TEXT ·tipTipPlaneAVX(SB), NOSPLIT, $0-192
	VBROADCASTSD absMask<>(SB), Y12
	VBROADCASTSD minLikelihood<>(SB), Y13
	MOVQ j0+144(FP), R8
	MOVQ R8, AX
	SHLQ $5, AX
	MOVQ d_base+0(FP), DI
	ADDQ AX, DI
	MOVQ ra_base+72(FP), SI
	ADDQ R8, SI
	MOVQ rb_base+96(FP), DX
	ADDQ R8, DX
	ADDQ small_base+120(FP), R8
	MOVQ ta_base+24(FP), BX
	MOVQ tb_base+48(FP), R12
	MOVQ cs+168(FP), R13
	MOVQ step+160(FP), R9
	SHLQ $5, R9
	MOVQ n+152(FP), CX
	TESTQ CX, CX
	JLE tipTipDone

tipTipLoop:
	MOVBQZX (SI), AX
	IMULQ R13, AX
	LEAQ 4(AX), R10
	CMPQ R10, ta_len+32(FP)
	JGT tipTipDone
	MOVBQZX (DX), R11
	IMULQ R13, R11
	LEAQ 4(R11), R10
	CMPQ R10, tb_len+56(FP)
	JGT tipTipDone
	VMOVUPD (BX)(AX*8), Y8
	VMULPD (R12)(R11*8), Y8, Y8
	VMOVUPD Y8, 0(DI)
	FLAG(Y8, Y9, R8, first+176(FP), R10)
	MOVQ step+160(FP), R11
	ADDQ R9, DI
	ADDQ R11, SI
	ADDQ R11, DX
	ADDQ R11, R8
	DECQ CX
	JNZ tipTipLoop

tipTipDone:
	MOVQ n+152(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+184(FP)
	VZEROUPPER
	RET
