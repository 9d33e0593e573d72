#include "textflag.h"

// axpy's sweep (AxpySharded's per-source add), four float64 lanes at a
// time over the first n&^3 elements; the Go wrapper in ops.go finishes the
// last n%4 on the scalar loop. Each lane rounds the product (VMULPD) and
// then adds it to its output (VADDPD), never an FMA: the scalar loop's
// exact per-element sequence, so both paths give the same bits.

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
