#include "textflag.h"

// The AVX kernel of ApplyCols (applycols.go, whose scalar loop is its
// reference and its fallback). One YMM register holds four consecutive
// outputs dst[k..k+3]; step a adds mT[a·n+k..k+3]·x[a] to it, the product a
// VMULPD with x[a] broadcast to all lanes and the sum a VADDPD onto the
// accumulator, from a VXORPD zero. Lane k is then the scalar
//
//	s_k = 0; s_k += mT[0·n+k]·x[0]; s_k += mT[1·n+k]·x[1]; …
//
// rounded after every product and every add, as MULSD/ADDSD round it. No FMA:
// a fused multiply-add rounds once where the scalar rounds twice. Outputs go
// five quartets at a time (a whole 20-state column in Y0-Y4, five independent
// add chains), then one quartet at a time for what is left (a 4-state column).
// The caller (applycols_amd64.go) has checked the shapes.

// func applyColsAVX(dst, mT, x []float64)
TEXT ·applyColsAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ mT_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ R8, R9
	SHLQ $3, R9 // a row of mT: 8n bytes

block5:
	CMPQ R8, $20
	JLT  block1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

loop5:
	VBROADCASTSD (R11), Y15
	VMULPD       0(R10), Y15, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R10), Y15, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R10), Y15, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R10), Y15, Y8
	VADDPD       Y8, Y3, Y3
	VMULPD       128(R10), Y15, Y9
	VADDPD       Y9, Y4, Y4
	ADDQ         R9, R10
	ADDQ         $8, R11
	DECQ         R12
	JNZ          loop5
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VMOVUPD      Y4, 128(DI)
	ADDQ         $160, DI
	ADDQ         $160, SI
	SUBQ         $20, R8
	JMP          block5

block1:
	TESTQ R8, R8
	JZ    done
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

loop1:
	VBROADCASTSD (R11), Y15
	VMULPD       0(R10), Y15, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R9, R10
	ADDQ         $8, R11
	DECQ         R12
	JNZ          loop1
	VMOVUPD      Y0, 0(DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $4, R8
	JMP          block1

done:
	VZEROUPPER
	RET
