#include "textflag.h"

#include "exp_amd64.h"

// The kernel of Exps (exps.go; math.Exp is its reference and its fallback).
// Four quartets of x at a time are exp_amd64.h's four chains; past the last
// quartet a chain repeats the group's first and stores nothing. A quartet is
// written back only where GUARD holds for all four lanes; otherwise it keeps
// its arguments and its bit in the returned mask is set, and the caller
// (exps_amd64.go, which has checked that x has at most 64 quartets) takes
// those with math.Exp.

// PUT stores chain y to (addr) when its guard mask m is 15 and otherwise
// sets bit BX (the quartet's index) of the refused mask in AX.
#define PUT(y, addr, m, put, next) \
	CMPL m, $15; \
	JEQ  put; \
	BTSQ BX, AX; \
	JMP  next; \
put: \
	VMOVUPD y, (addr); \
next:

// func expsAVX(x []float64) (refused uint64)
TEXT ·expsAVX(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	XORQ BX, BX
	VBROADCASTSD argMin<>(SB), Y12
	VBROADCASTSD argMax<>(SB), Y13
	TESTQ CX, CX
	JZ    done

group:
	// Quartets BX..BX+3 at DI, R9, R10, R11.
	MOVQ    BX, DI
	LEAQ    1(BX), R9
	CMPQ    R9, CX
	CMOVQGE BX, R9
	LEAQ    2(BX), R10
	CMPQ    R10, CX
	CMOVQGE BX, R10
	LEAQ    3(BX), R11
	CMPQ    R11, CX
	CMOVQGE BX, R11
	SHLQ    $5, DI
	SHLQ    $5, R9
	SHLQ    $5, R10
	SHLQ    $5, R11
	ADDQ    SI, DI
	ADDQ    SI, R9
	ADDQ    SI, R10
	ADDQ    SI, R11
	VMOVUPD (DI), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	GUARD(Y0, Y12, Y13, Y4, Y5, DX)
	GUARD(Y1, Y12, Y13, Y4, Y5, R8)
	GUARD(Y2, Y12, Y13, Y4, Y5, R12)
	GUARD(Y3, Y12, Y13, Y4, Y5, R13)
	EXP_FMA
	PUT(Y0, DI, DX, put0, next0)
	INCQ BX
	CMPQ BX, CX
	JGE  done
	PUT(Y1, R9, R8, put1, next1)
	INCQ BX
	CMPQ BX, CX
	JGE  done
	PUT(Y2, R10, R12, put2, next2)
	INCQ BX
	CMPQ BX, CX
	JGE  done
	PUT(Y3, R11, R13, put3, next3)
	INCQ BX
	CMPQ BX, CX
	JLT  group

done:
	MOVQ AX, refused+24(FP)
	VZEROUPPER
	RET
