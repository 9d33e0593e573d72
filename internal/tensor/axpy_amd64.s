#include "textflag.h"

// The reduction and mix sweeps — axpy (each source's add in AxpySharded
// and MeanSharded), divide (MeanSharded's last step) and Mix (FedAT's
// commit mix) — four float64 lanes at a time over the first n&^3
// elements; the Go wrappers in ops.go finish the last n%4 on their scalar
// loops. Each lane rounds every product (VMULPD) before its add (VADDPD),
// never an FMA, and divides with VDIVPD: the scalar loops' exact
// per-element sequence, so both paths give the same bits.

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

// func divKernel(o *float64, d float64, n int)
//
// o[j] /= d.
TEXT ·divKernel(SB), NOSPLIT, $0-24
	MOVQ o+0(FP), DI
	VBROADCASTSD d+8(FP), Y0
	MOVQ n+16(FP), DX
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE ddone

dloop:
	VMOVUPD (DI)(CX*8), Y1
	VDIVPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT dloop

ddone:
	VZEROUPPER
	RET

// func mixKernel(o, c *float64, b, a float64, n int)
//
// o[j] = b·o[j] + a·c[j]: both products rounded, then the sum, with the
// scalar loop's operands first (b·o, then that product + a·c).
TEXT ·mixKernel(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ c+8(FP), SI
	VBROADCASTSD b+16(FP), Y0
	VBROADCASTSD a+24(FP), Y1
	MOVQ n+32(FP), DX
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE mdone

mloop:
	VMULPD (DI)(CX*8), Y0, Y2
	VMULPD (SI)(CX*8), Y1, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(CX*8)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT mloop

mdone:
	VZEROUPPER
	RET
