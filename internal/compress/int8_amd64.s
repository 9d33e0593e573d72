#include "textflag.h"

// The int8 codec's three inner loops, four float64 lanes at a time. Each
// kernel covers the whole 4-lane groups of the vector it walks and leaves
// the rest to the scalar loops in int8.go. Every step is an IEEE operation
// that is exact per lane — add, divide, round, min/max, multiply, subtract,
// and conversions of integral values — so each lane gets the scalar loop's
// bits.

// func int8CarryMax(sum, cur, base, carry []float64) float64
//
// v = (cur − base) + carry lane by lane (a nil base or carry skipped),
// stored into sum unless sum is nil, then max|v| over the lanes whose
// |v| ≤ MaxFloat64 (NaN and ±Inf excluded, as in the scalar loop).
TEXT ·int8CarryMax(SB), NOSPLIT, $0-104
	MOVQ sum_base+0(FP), R9
	MOVQ cur_base+24(FP), SI
	MOVQ cur_len+32(FP), DX
	MOVQ base_base+48(FP), R8
	MOVQ carry_base+72(FP), DI
	MOVQ $0x7FFFFFFFFFFFFFFF, AX // sign-clearing mask
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7
	MOVQ $0x7FEFFFFFFFFFFFFF, AX // MaxFloat64
	VMOVQ AX, X6
	VBROADCASTSD X6, Y6
	VXORPD Y0, Y0, Y0            // running max, +0
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE  cdone

cloop:
	VMOVUPD (SI)(CX*8), Y1
	TESTQ   R8, R8
	JZ      cnobase
	VSUBPD  (R8)(CX*8), Y1, Y1 // cur − base, cur the first operand
cnobase:
	TESTQ   DI, DI
	JZ      cnocarry
	VADDPD  (DI)(CX*8), Y1, Y1 // then + carry, the difference first
cnocarry:
	TESTQ   R9, R9
	JZ      cmax
	VMOVUPD Y1, (R9)(CX*8)
cmax:
	VANDPD  Y7, Y1, Y1
	VCMPPD  $0x12, Y6, Y1, Y2  // |v| ≤ MaxFloat64, ordered: false for NaN
	VANDPD  Y2, Y1, Y1
	VMAXPD  Y1, Y0, Y0
	ADDQ    $4, CX
	CMPQ    CX, DX
	JLT     cloop

cdone:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+96(FP)
	VZEROUPPER
	RET

// func int8Quantize(codes []byte, v, base, out, res []float64, s float64)
//
// Per lane: r = RoundToEven(v/s), NaN → 0, clamped to ±127, then + (+0) so
// that a lane rounding to −0 carries +0 — the scalar loop's q passes through
// int8, which has no −0. The code is r packed to a byte; with res non-nil,
// x = r·s, out = base + x (x for a nil base; skipped for a nil out) and
// res = v − x, a multiply then an add or subtract, never an FMA. v and base
// are read before out and res are written, so out may be base and res v.
TEXT ·int8Quantize(SB), NOSPLIT, $0-128
	MOVQ codes_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), DX
	MOVQ base_base+48(FP), R10
	MOVQ out_base+72(FP), R8
	MOVQ res_base+96(FP), R9
	VBROADCASTSD s+120(FP), Y15
	MOVQ $0x405FC00000000000, AX // 127
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14
	MOVQ $0xC05FC00000000000, AX // -127
	VMOVQ AX, X13
	VBROADCASTSD X13, Y13
	VXORPD Y12, Y12, Y12         // +0
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE  qdone

qloop:
	VMOVUPD    (SI)(CX*8), Y0
	VDIVPD     Y15, Y0, Y1
	VROUNDPD   $0, Y1, Y1      // nearest, ties to even
	VCMPPD     $3, Y1, Y1, Y2  // unordered: the NaN lanes
	VANDNPD    Y1, Y2, Y1      // NaN → +0
	VMINPD     Y14, Y1, Y1
	VMAXPD     Y13, Y1, Y1
	VADDPD     Y12, Y1, Y1     // −0 → +0
	VCVTPD2DQY Y1, X3
	VPACKSSDW  X3, X3, X3
	VPACKSSWB  X3, X3, X3
	VMOVD      X3, (DI)(CX*1)
	TESTQ      R9, R9
	JZ         qnext
	VMULPD     Y15, Y1, Y4     // x = q·s
	VSUBPD     Y4, Y0, Y5      // res = v − x
	TESTQ      R8, R8
	JZ         qres
	TESTQ      R10, R10
	JZ         qbare
	VMOVUPD    (R10)(CX*8), Y6
	VADDPD     Y4, Y6, Y6      // out = base + x, base the first operand
	VMOVUPD    Y6, (R8)(CX*8)
	JMP        qres

qbare:
	VMOVUPD    Y4, (R8)(CX*8)

qres:
	VMOVUPD    Y5, (R9)(CX*8)

qnext:
	ADDQ $4, CX
	CMPQ CX, DX
	JLT  qloop

qdone:
	VZEROUPPER
	RET

// func int8Decode(dst, base []float64, codes []byte, s float64)
//
// dst = base + q·s (q·s for a nil base): sign-extend four codes, convert,
// multiply, add.
TEXT ·int8Decode(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ base_base+24(FP), R8
	MOVQ codes_base+48(FP), SI
	VBROADCASTSD s+72(FP), Y15
	ANDQ $-4, DX
	XORQ CX, CX
	CMPQ CX, DX
	JGE  ddone
	TESTQ R8, R8
	JZ    dbare

dadd:
	VPMOVSXBD (SI)(CX*1), X1
	VCVTDQ2PD X1, Y1
	VMULPD    Y15, Y1, Y1
	VMOVUPD   (R8)(CX*8), Y2
	VADDPD    Y1, Y2, Y1   // base + q·s
	VMOVUPD   Y1, (DI)(CX*8)
	ADDQ      $4, CX
	CMPQ      CX, DX
	JLT       dadd
	JMP       ddone

dbare:
	VPMOVSXBD (SI)(CX*1), X1
	VCVTDQ2PD X1, Y1
	VMULPD    Y15, Y1, Y1
	VMOVUPD   Y1, (DI)(CX*8)
	ADDQ      $4, CX
	CMPQ      CX, DX
	JLT       dbare

ddone:
	VZEROUPPER
	RET
