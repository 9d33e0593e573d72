#include "textflag.h"

// func rmspropKernel(param, grad, cache *float64, n int, lr, rho, omr, eps float64)
//
// RMSprop.Step's loop (optimizer.go), four float64 lanes at a time over the
// first n&^3 elements; the scalar loop finishes the last n%4. Each lane
// runs the scalar loop's operation sequence, every operation correctly
// rounded and none fused:
//
//	c = rho·c + (omr·g)·g   three VMULPD, one VADDPD; stored
//	q = (lr·g) / (√c + eps) VMULPD, VSQRTPD, VADDPD, VDIVPD
//	p = p − q               VSUBPD
//
// so both paths give the same bits.
TEXT ·rmspropKernel(SB), NOSPLIT, $0-64
	MOVQ param+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ cache+16(FP), BX
	MOVQ n+24(FP), DX
	VBROADCASTSD lr+32(FP), Y0
	VBROADCASTSD rho+40(FP), Y1
	VBROADCASTSD omr+48(FP), Y2
	VBROADCASTSD eps+56(FP), Y3
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE  done

quad:
	VMOVUPD (SI)(CX*8), Y4
	VMULPD  (BX)(CX*8), Y1, Y5
	VMULPD  Y4, Y2, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y6, Y5, Y5
	VMOVUPD Y5, (BX)(CX*8)
	VSQRTPD Y5, Y5
	VADDPD  Y3, Y5, Y5
	VMULPD  Y4, Y0, Y6
	VDIVPD  Y5, Y6, Y6
	VMOVUPD (DI)(CX*8), Y7
	VSUBPD  Y6, Y7, Y7
	VMOVUPD Y7, (DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, DX
	JLT     quad

done:
	VZEROUPPER
	RET

// func divKernel(dst, c *float64, n int)
//
// dst = 1 / √c over the first n&^3 elements: the step's divider work
// alone, the ceiling BenchmarkRMSpropDivider reads rmspropKernel against.
TEXT ·divKernel(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ $0x3FF0000000000000, AX // 1.0
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE  ddone

dloop:
	VSQRTPD (SI)(CX*8), Y1
	VDIVPD  Y1, Y0, Y1
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, DX
	JLT     dloop

ddone:
	VZEROUPPER
	RET
