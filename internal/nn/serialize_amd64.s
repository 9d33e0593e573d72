#include "textflag.h"

// func finiteKernel(w []float64) bool
//
// Per lane: the exponent bits (VPAND with the mask) compared for equality
// with the mask (VPCMPEQQ), so a lane reads all ones exactly when it holds a
// NaN or ±Inf; the compares are OR-accumulated and tested once at the end.
// Sixteen lanes per step in two accumulators, then four at a time; the
// scalar loop in serialize.go scans the last len%4.
TEXT ·finiteKernel(SB), NOSPLIT, $0-25
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), DX
	MOVQ $0x7FF0000000000000, AX // exponent mask
	VMOVQ AX, X7
	VPBROADCASTQ X7, Y7
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ DX, BX
	ANDQ $-16, BX
	XORQ CX, CX
	CMPQ CX, BX
	JGE  quads

sixteen:
	VPAND    (SI)(CX*8), Y7, Y2
	VPAND    32(SI)(CX*8), Y7, Y3
	VPAND    64(SI)(CX*8), Y7, Y4
	VPAND    96(SI)(CX*8), Y7, Y5
	VPCMPEQQ Y7, Y2, Y2
	VPCMPEQQ Y7, Y3, Y3
	VPCMPEQQ Y7, Y4, Y4
	VPCMPEQQ Y7, Y5, Y5
	VPOR     Y2, Y0, Y0
	VPOR     Y3, Y1, Y1
	VPOR     Y4, Y0, Y0
	VPOR     Y5, Y1, Y1
	ADDQ     $16, CX
	CMPQ     CX, BX
	JLT      sixteen

quads:
	ANDQ $-4, DX
	CMPQ CX, DX
	JGE  done

quad:
	VPAND    (SI)(CX*8), Y7, Y2
	VPCMPEQQ Y7, Y2, Y2
	VPOR     Y2, Y0, Y0
	ADDQ     $4, CX
	CMPQ     CX, DX
	JLT      quad

done:
	VPOR  Y1, Y0, Y0
	VPTEST Y0, Y0
	SETEQ ret+24(FP)
	VZEROUPPER
	RET
