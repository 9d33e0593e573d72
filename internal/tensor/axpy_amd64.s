#include "textflag.h"

// The inner sweeps of matMulRows (a·b) and matMulATBRows (aᵀ·b), four
// float64 lanes at a time over the first n&^3 elements; the Go wrappers in
// ops.go finish the last n%4 on the scalar loop. Each lane rounds the
// product (VMULPD) and then adds it to its output (VADDPD), never an FMA:
// the scalar loop's exact per-element sequence, so both paths give the
// same bits. o, o0, o1, b, b0 and b1 point at whole rows of n elements.

// func axpyKernel(o, b *float64, a float64, n int)
//
// o[j] += a·b[j].
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSD a+16(FP), Y0
	MOVQ n+24(FP), DX
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE done

loop:
	VMULPD (SI)(CX*8), Y0, Y1
	VADDPD (DI)(CX*8), Y1, Y1
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT loop

done:
	VZEROUPPER
	RET

// func axpyRowsKernel(o0, o1, b *float64, a0, a1 float64, n int)
//
// o0[j] += a0·b[j] and o1[j] += a1·b[j]: matMulRows' row pair, one b row
// into two output rows.
TEXT ·axpyRowsKernel(SB), NOSPLIT, $0-48
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), R8
	MOVQ b+16(FP), SI
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	MOVQ n+40(FP), DX
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE rdone

rloop:
	VMOVUPD (SI)(CX*8), Y2
	VMULPD Y2, Y0, Y3
	VMULPD Y2, Y1, Y4
	VADDPD (DI)(CX*8), Y3, Y3
	VADDPD (R8)(CX*8), Y4, Y4
	VMOVUPD Y3, (DI)(CX*8)
	VMOVUPD Y4, (R8)(CX*8)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT rloop

rdone:
	VZEROUPPER
	RET

// func axpyStepsKernel(o, b0, b1 *float64, a0, a1 float64, n int)
//
// o[j] += a0·b0[j], then o[j] += a1·b1[j]: matMulATBRows's step pair, two
// separately rounded adds in that order.
TEXT ·axpyStepsKernel(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	MOVQ n+40(FP), DX
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE sdone

sloop:
	VMULPD (SI)(CX*8), Y0, Y2
	VMULPD (R8)(CX*8), Y1, Y3
	VADDPD (DI)(CX*8), Y2, Y2
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(CX*8)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT sloop

sdone:
	VZEROUPPER
	RET
