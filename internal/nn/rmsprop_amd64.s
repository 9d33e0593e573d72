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

// func rmspropKernelAVX512(param, grad, cache *float64, n int, lr, rho, omr, eps float64)
//
// rmspropKernel eight lanes at a time over the first n&^7 elements, with
// AVX-512F instructions only, and the same bits. c and q are formed as
// there; √c is taken from an estimate that is kept only where it is
// proven to be VSQRTPD's result, so the divider does one VDIVPD per
// parameter instead of a VSQRTPD and a VDIVPD.
//
//	y = VRSQRT14PD(c), s = c·y, h = y/2
//	twice: r = ½ − s·h, s += s·r, h += h·r   (Goldschmidt, FMAs)
//	s += (c − s·s)·h                         (one Newton step, FMAs)
//
// Proof. With u = ulp(s) and s not a power of two, RN(√c) = s exactly when
// −s·u < c − s² ≤ s·u: a square root never lands on a midpoint, and in
// range c − s² and s·u are multiples of u². The lane is proven when
// R = c − s·s (one FMA, exact whenever |c − s²| < s·u) and b = s·u (an
// exact VMULPD) give |R| < b, s has a non-zero mantissa, and
// 2⁻⁹⁶⁰ ≤ c < 2¹⁰⁰⁰; otherwise rounding is monotone, |R| ≥ b and the
// lane is not proven. A lane with c = ±0 takes s = c. A group with any
// lane unproven takes VSQRTPD(c) whole. The FMAs feed only the estimate
// and the test: every stored value is rounded once per operation, as the
// scalar loop's is, and VRSQRT14PD's estimate (which may differ between
// CPU models) only decides which groups fall back.
TEXT ·rmspropKernelAVX512(SB), NOSPLIT, $0-64
	MOVQ param+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ cache+16(FP), BX
	MOVQ n+24(FP), DX
	VBROADCASTSD lr+32(FP), Z0
	VBROADCASTSD rho+40(FP), Z1
	VBROADCASTSD omr+48(FP), Z2
	VBROADCASTSD eps+56(FP), Z3
	MOVQ $0x3FE0000000000000, AX // ½
	VPBROADCASTQ AX, Z20
	MOVQ $0x7FF0000000000000, AX // exponent field
	VPBROADCASTQ AX, Z21
	MOVQ $0x0340000000000000, AX // 52 in the exponent field
	VPBROADCASTQ AX, Z22
	MOVQ $0x7FFFFFFFFFFFFFFF, AX // all but the sign
	VPBROADCASTQ AX, Z23
	MOVQ $0x000FFFFFFFFFFFFF, AX // mantissa
	VPBROADCASTQ AX, Z24
	MOVQ $0x03F0000000000000, AX // bits(2⁻⁹⁶⁰)
	VPBROADCASTQ AX, Z25
	MOVQ $0x7A80000000000000, AX // bits(2¹⁰⁰⁰) − bits(2⁻⁹⁶⁰)
	VPBROADCASTQ AX, Z26
	VPXORQ Z27, Z27, Z27
	ANDQ $-8, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE  done8

oct:
	VMOVUPD (SI)(CX*8), Z4
	VMULPD  (BX)(CX*8), Z1, Z5
	VMULPD  Z4, Z2, Z6
	VMULPD  Z4, Z6, Z6
	VADDPD  Z6, Z5, Z5 // c
	VMOVUPD Z5, (BX)(CX*8)

	VRSQRT14PD Z5, Z7 // y
	VMULPD     Z7, Z5, Z8 // s
	VMULPD     Z20, Z7, Z9 // h
	VMOVAPD      Z20, Z10
	VFNMADD231PD Z9, Z8, Z10 // r = ½ − s·h
	VFMADD231PD  Z10, Z8, Z8 // s += s·r
	VFMADD231PD  Z10, Z9, Z9 // h += h·r
	VMOVAPD      Z20, Z10
	VFNMADD231PD Z9, Z8, Z10
	VFMADD231PD  Z10, Z8, Z8
	VFMADD231PD  Z10, Z9, Z9
	VMOVAPD      Z5, Z11
	VFNMADD231PD Z8, Z8, Z11 // c − s·s
	VFMADD231PD  Z11, Z9, Z8 // s += (c − s·s)·h

	VMOVAPD      Z5, Z11
	VFNMADD231PD Z8, Z8, Z11 // R = c − s·s
	VPANDQ       Z23, Z11, Z11 // |R|
	VPANDQ       Z21, Z8, Z12
	VPSUBQ       Z22, Z12, Z12 // u = ulp(s)
	VMULPD       Z12, Z8, Z12 // b = s·u
	VCMPPD       $1, Z12, Z11, K1 // |R| < b
	VPTESTMQ     Z24, Z8, K1, K2 // and a non-zero mantissa
	VPSUBQ       Z25, Z5, Z13
	VPCMPUQ      $1, Z26, Z13, K2, K3 // and 2⁻⁹⁶⁰ ≤ c < 2¹⁰⁰⁰
	VCMPPD       $0, Z27, Z5, K4 // c = ±0
	KORW         K3, K4, K5
	KMOVW        K5, AX
	CMPL         AX, $0xFF
	JNE          unproven
	VMOVAPD      Z5, K4, Z8 // √±0 = ±0

divide:
	VADDPD  Z3, Z8, Z8 // d = s + eps
	VMULPD  Z4, Z0, Z6
	VDIVPD  Z8, Z6, Z6 // q = (lr·g) / d
	VMOVUPD (DI)(CX*8), Z7
	VSUBPD  Z6, Z7, Z7
	VMOVUPD Z7, (DI)(CX*8)
	ADDQ    $8, CX
	CMPQ    CX, DX
	JLT     oct

done8:
	VZEROUPPER
	RET

unproven:
	VSQRTPD Z5, Z8
	JMP     divide

// func divKernel(dst, c *float64, n int)
//
// dst = 1 / c over the first n&^3 elements, one VDIVPD per parameter: the
// step's only divider work once rmspropKernelAVX512 takes the square root
// off the divider, the ceiling BenchmarkRMSpropDivider reads the step
// against.
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
	VMOVUPD (SI)(CX*8), Y1
	VDIVPD  Y1, Y0, Y1
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, DX
	JLT     dloop

ddone:
	VZEROUPPER
	RET
