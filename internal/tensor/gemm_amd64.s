#include "textflag.h"

// func abtKernel16(out, a, b, bias *float64, rows, k, n int)
//
// out[i, 0:16] = Σ_p a[i,p]·b[p, 0:16] (+ bias[0:16]) for rows i < rows.
// a rows are k apart, out rows n apart, b is one packed k×16 block. Each
// YMM lane is one output element's accumulator: it starts at +0, adds the
// rounded product (VMULPD, then VADDPD — no FMA) for p ascending, then the
// bias, which is the scalar loop's exact per-element sequence.
TEXT ·abtKernel16(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bias+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ n+48(FP), R11
	SHLQ $3, R11 // out row stride in bytes
	MOVQ R10, R13
	SHLQ $3, R13 // a row stride in bytes

pairs:
	CMPQ R9, $2
	JLT  tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	LEAQ (SI)(R13*1), BX
	MOVQ DX, CX
	MOVQ R10, R12
	TESTQ R12, R12
	JZ    pairbias

pairloop:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (BX), Y9
	VMOVUPD (CX), Y10
	VMOVUPD 32(CX), Y11
	VMOVUPD 64(CX), Y12
	VMOVUPD 96(CX), Y13
	VMULPD Y10, Y8, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y11, Y8, Y15
	VADDPD Y15, Y1, Y1
	VMULPD Y12, Y8, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y13, Y8, Y15
	VADDPD Y15, Y3, Y3
	VMULPD Y10, Y9, Y14
	VADDPD Y14, Y4, Y4
	VMULPD Y11, Y9, Y15
	VADDPD Y15, Y5, Y5
	VMULPD Y12, Y9, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y13, Y9, Y15
	VADDPD Y15, Y7, Y7
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $128, CX
	DECQ R12
	JNZ  pairloop

pairbias:
	TESTQ R8, R8
	JZ    pairstore
	VMOVUPD (R8), Y10
	VMOVUPD 32(R8), Y11
	VMOVUPD 64(R8), Y12
	VMOVUPD 96(R8), Y13
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7

pairstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R11*1)
	VMOVUPD Y5, 32(DI)(R11*1)
	VMOVUPD Y6, 64(DI)(R11*1)
	VMOVUPD Y7, 96(DI)(R11*1)
	LEAQ (SI)(R13*2), SI
	LEAQ (DI)(R11*2), DI
	SUBQ $2, R9
	JMP  pairs

tail:
	TESTQ R9, R9
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ DX, CX
	MOVQ R10, R12
	TESTQ R12, R12
	JZ    tailbias

tailloop:
	VBROADCASTSD (AX), Y8
	VMULPD (CX), Y8, Y10
	VADDPD Y10, Y0, Y0
	VMULPD 32(CX), Y8, Y11
	VADDPD Y11, Y1, Y1
	VMULPD 64(CX), Y8, Y12
	VADDPD Y12, Y2, Y2
	VMULPD 96(CX), Y8, Y13
	VADDPD Y13, Y3, Y3
	ADDQ $8, AX
	ADDQ $128, CX
	DECQ R12
	JNZ  tailloop

tailbias:
	TESTQ R8, R8
	JZ    tailstore
	VADDPD (R8), Y0, Y0
	VADDPD 32(R8), Y1, Y1
	VADDPD 64(R8), Y2, Y2
	VADDPD 96(R8), Y3, Y3

tailstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)

done:
	VZEROUPPER
	RET

// func abtKernel16AVX512(out, a, b, bias *float64, rows, k, n int)
//
// abtKernel16 for rows a multiple of 4, four rows at a time: each row's 16
// columns are two ZMM accumulators, eight in all, and each b row of the
// block is loaded once for the four, each a[i,p] broadcast by the VMULPD
// that reads it. A ZMM lane is one output element's accumulator and
// repeats abtKernel16's sequence: +0, then the rounded product (VMULPD,
// then VADDPD — no FMA) for p ascending, then the bias.
TEXT ·abtKernel16AVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bias+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ n+48(FP), R11
	SHLQ $3, R11 // out row stride in bytes
	MOVQ R10, R13
	SHLQ $3, R13 // a row stride in bytes

quads:
	CMPQ R9, $4
	JLT  quaddone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, AX // the four a rows, one pointer each
	LEAQ (SI)(R13*1), BX
	LEAQ (BX)(R13*1), R14
	LEAQ (R14)(R13*1), R15
	MOVQ DX, CX
	MOVQ R10, R12
	SHRQ $1, R12 // p in pairs, then an odd last step
	JZ    quadodd

quadloop:
	VMOVUPD (CX), Z16
	VMOVUPD 64(CX), Z17
	VMULPD.BCST (AX), Z16, Z18
	VADDPD Z18, Z0, Z0
	VMULPD.BCST (AX), Z17, Z19
	VADDPD Z19, Z1, Z1
	VMULPD.BCST (BX), Z16, Z20
	VADDPD Z20, Z2, Z2
	VMULPD.BCST (BX), Z17, Z21
	VADDPD Z21, Z3, Z3
	VMULPD.BCST (R14), Z16, Z22
	VADDPD Z22, Z4, Z4
	VMULPD.BCST (R14), Z17, Z23
	VADDPD Z23, Z5, Z5
	VMULPD.BCST (R15), Z16, Z24
	VADDPD Z24, Z6, Z6
	VMULPD.BCST (R15), Z17, Z25
	VADDPD Z25, Z7, Z7
	VMOVUPD 128(CX), Z16
	VMOVUPD 192(CX), Z17
	VMULPD.BCST 8(AX), Z16, Z26
	VADDPD Z26, Z0, Z0
	VMULPD.BCST 8(AX), Z17, Z27
	VADDPD Z27, Z1, Z1
	VMULPD.BCST 8(BX), Z16, Z28
	VADDPD Z28, Z2, Z2
	VMULPD.BCST 8(BX), Z17, Z29
	VADDPD Z29, Z3, Z3
	VMULPD.BCST 8(R14), Z16, Z30
	VADDPD Z30, Z4, Z4
	VMULPD.BCST 8(R14), Z17, Z31
	VADDPD Z31, Z5, Z5
	VMULPD.BCST 8(R15), Z16, Z18
	VADDPD Z18, Z6, Z6
	VMULPD.BCST 8(R15), Z17, Z19
	VADDPD Z19, Z7, Z7
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, R14
	ADDQ $16, R15
	ADDQ $256, CX
	DECQ R12
	JNZ  quadloop

quadodd:
	TESTQ $1, R10
	JZ    quadbias
	VMOVUPD (CX), Z16
	VMOVUPD 64(CX), Z17
	VMULPD.BCST (AX), Z16, Z18
	VADDPD Z18, Z0, Z0
	VMULPD.BCST (AX), Z17, Z19
	VADDPD Z19, Z1, Z1
	VMULPD.BCST (BX), Z16, Z20
	VADDPD Z20, Z2, Z2
	VMULPD.BCST (BX), Z17, Z21
	VADDPD Z21, Z3, Z3
	VMULPD.BCST (R14), Z16, Z22
	VADDPD Z22, Z4, Z4
	VMULPD.BCST (R14), Z17, Z23
	VADDPD Z23, Z5, Z5
	VMULPD.BCST (R15), Z16, Z24
	VADDPD Z24, Z6, Z6
	VMULPD.BCST (R15), Z17, Z25
	VADDPD Z25, Z7, Z7

quadbias:
	TESTQ R8, R8
	JZ    quadstore
	VMOVUPD (R8), Z16
	VMOVUPD 64(R8), Z17
	VADDPD Z16, Z0, Z0
	VADDPD Z17, Z1, Z1
	VADDPD Z16, Z2, Z2
	VADDPD Z17, Z3, Z3
	VADDPD Z16, Z4, Z4
	VADDPD Z17, Z5, Z5
	VADDPD Z16, Z6, Z6
	VADDPD Z17, Z7, Z7

quadstore:
	LEAQ (DI)(R11*2), AX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R11*1)
	VMOVUPD Z3, 64(DI)(R11*1)
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, (AX)(R11*1)
	VMOVUPD Z7, 64(AX)(R11*1)
	LEAQ (SI)(R13*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R9
	JMP  quads

quaddone:
	VZEROUPPER
	RET

// func nzKernel(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool)
//
// One output row of a·b or aᵀ·b: out[j] = Σ v·b[off+j] (+ bias[j]) over
// the count {v, off} entries of list, off being the byte offset of a row
// of b. Each YMM lane is one output element's accumulator: it starts at +0
// (or at out[j] when acc), adds the rounded product (VMULPD, then VADDPD —
// no FMA) entry by entry, then the bias, which is the scalar loop's exact
// per-element sequence. Columns run 32 at a time in eight accumulators,
// then 16 in four, then the last n%16 in one masked 16-lane pass, so each
// output element is loaded and stored once per call.
TEXT ·nzKernel(SB), NOSPLIT, $0-49
	MOVQ out+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ list+16(FP), R8
	MOVQ count+24(FP), R9
	SHLQ $4, R9
	ADDQ R8, R9 // end of the list
	MOVQ n+32(FP), CX // columns left
	MOVQ bias+40(FP), R11
	MOVBLZX acc+48(FP), R12

cols32:
	CMPQ CX, $32
	JLT  cols16
	TESTQ R12, R12
	JNZ  load32
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  start32

load32:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

start32:
	MOVQ R8, AX
	CMPQ AX, R9
	JEQ  bias32

loop32:
	VBROADCASTSD (AX), Y8
	MOVQ 8(AX), DX
	VMULPD (SI)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI)(DX*1), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(SI)(DX*1), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(SI)(DX*1), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(SI)(DX*1), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(SI)(DX*1), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(SI)(DX*1), Y8, Y9
	VADDPD Y9, Y7, Y7
	ADDQ $16, AX
	CMPQ AX, R9
	JNE  loop32

bias32:
	TESTQ R11, R11
	JZ    store32
	VADDPD (R11), Y0, Y0
	VADDPD 32(R11), Y1, Y1
	VADDPD 64(R11), Y2, Y2
	VADDPD 96(R11), Y3, Y3
	VADDPD 128(R11), Y4, Y4
	VADDPD 160(R11), Y5, Y5
	VADDPD 192(R11), Y6, Y6
	VADDPD 224(R11), Y7, Y7
	ADDQ $256, R11

store32:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  cols32

cols16:
	CMPQ CX, $16
	JLT  tail
	TESTQ R12, R12
	JNZ  load16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP  start16

load16:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

start16:
	MOVQ R8, AX
	CMPQ AX, R9
	JEQ  bias16

loop16:
	VBROADCASTSD (AX), Y8
	MOVQ 8(AX), DX
	VMULPD (SI)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI)(DX*1), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(SI)(DX*1), Y8, Y12
	VADDPD Y12, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, R9
	JNE  loop16

bias16:
	TESTQ R11, R11
	JZ    store16
	VADDPD (R11), Y0, Y0
	VADDPD 32(R11), Y1, Y1
	VADDPD 64(R11), Y2, Y2
	VADDPD 96(R11), Y3, Y3
	ADDQ $128, R11

store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

tail:
	TESTQ CX, CX
	JZ    done
	// Lane l of the pass is live when l < CX: its mask is tailmask[16-CX+l].
	LEAQ tailmask<>+128(SB), BX
	NEGQ CX
	LEAQ (BX)(CX*8), BX
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	VMOVUPD 64(BX), Y14
	VMOVUPD 96(BX), Y15
	TESTQ R12, R12
	JNZ  loadtail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP  starttail

loadtail:
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	VMASKMOVPD 64(DI), Y14, Y2
	VMASKMOVPD 96(DI), Y15, Y3

starttail:
	MOVQ R8, AX
	CMPQ AX, R9
	JEQ  biastail

looptail:
	VBROADCASTSD (AX), Y8
	MOVQ 8(AX), DX
	VMASKMOVPD (SI)(DX*1), Y12, Y4
	VMASKMOVPD 32(SI)(DX*1), Y13, Y5
	VMASKMOVPD 64(SI)(DX*1), Y14, Y6
	VMASKMOVPD 96(SI)(DX*1), Y15, Y7
	VMULPD Y4, Y8, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y5, Y8, Y5
	VADDPD Y5, Y1, Y1
	VMULPD Y6, Y8, Y6
	VADDPD Y6, Y2, Y2
	VMULPD Y7, Y8, Y7
	VADDPD Y7, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, R9
	JNE  looptail

biastail:
	TESTQ R11, R11
	JZ    storetail
	VMASKMOVPD (R11), Y12, Y4
	VADDPD Y4, Y0, Y0
	VMASKMOVPD 32(R11), Y13, Y5
	VADDPD Y5, Y1, Y1
	VMASKMOVPD 64(R11), Y14, Y6
	VADDPD Y6, Y2, Y2
	VMASKMOVPD 96(R11), Y15, Y7
	VADDPD Y7, Y3, Y3

storetail:
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	VMASKMOVPD Y3, Y15, 96(DI)

done:
	VZEROUPPER
	RET

// tailmask is 16 all-ones quadwords, then 16 zero ones: nzKernel's lane
// masks for the last n%16 columns.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $-1
DATA tailmask<>+72(SB)/8, $-1
DATA tailmask<>+80(SB)/8, $-1
DATA tailmask<>+88(SB)/8, $-1
DATA tailmask<>+96(SB)/8, $-1
DATA tailmask<>+104(SB)/8, $-1
DATA tailmask<>+112(SB)/8, $-1
DATA tailmask<>+120(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $256

// LANEMASKS sets K4–K7 to the lanes of four ZMM registers of columns
// that hold one: the low cols bits (1 ≤ cols ≤ 63, in CX) of a word, a
// byte per register (an 8-lane instruction reads a mask's low 8 bits). It
// overwrites tmp.
#define LANEMASKS(tmp) \
	MOVQ  $1, tmp; \
	SHLQ  CX, tmp; \
	DECQ  tmp; \
	KMOVW tmp, K4; \
	SHRQ  $8, tmp; \
	KMOVW tmp, K5; \
	SHRQ  $8, tmp; \
	KMOVW tmp, K6; \
	SHRQ  $8, tmp; \
	KMOVW tmp, K7

// func nzKernelAVX512(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool)
//
// nzKernel on ZMM registers, for any n: columns run 64 at a time in eight
// accumulators over the whole list, each entry's b row addressed by one
// pointer, then the last n%64 in passes of 32 columns in four, lanes past
// n under the opmasks K4–K7 (a masked-off lane is neither loaded nor
// stored, so it cannot fault). A ZMM lane is one output element's
// accumulator and repeats nzKernel's sequence: +0 (or out[j] when acc),
// the rounded product (VMULPD, then VADDPD — no FMA) entry by entry, then
// the bias.
TEXT ·nzKernelAVX512(SB), NOSPLIT, $0-49
	MOVQ out+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ list+16(FP), R8
	MOVQ count+24(FP), R9
	SHLQ $4, R9
	ADDQ R8, R9 // end of the list
	MOVQ n+32(FP), CX // columns left
	MOVQ bias+40(FP), R11
	MOVBLZX acc+48(FP), R12

cols64:
	CMPQ CX, $64
	JLT  cols32
	TESTQ R12, R12
	JNZ  load64
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP  start64

load64:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7

start64:
	MOVQ R8, AX
	CMPQ AX, R9
	JEQ  bias64

loop64:
	VBROADCASTSD (AX), Z8
	MOVQ 8(AX), DX
	ADDQ SI, DX
	VMULPD (DX), Z8, Z16
	VADDPD Z16, Z0, Z0
	VMULPD 64(DX), Z8, Z17
	VADDPD Z17, Z1, Z1
	VMULPD 128(DX), Z8, Z18
	VADDPD Z18, Z2, Z2
	VMULPD 192(DX), Z8, Z19
	VADDPD Z19, Z3, Z3
	VMULPD 256(DX), Z8, Z20
	VADDPD Z20, Z4, Z4
	VMULPD 320(DX), Z8, Z21
	VADDPD Z21, Z5, Z5
	VMULPD 384(DX), Z8, Z22
	VADDPD Z22, Z6, Z6
	VMULPD 448(DX), Z8, Z23
	VADDPD Z23, Z7, Z7
	ADDQ $16, AX
	CMPQ AX, R9
	JNE  loop64

bias64:
	TESTQ R11, R11
	JZ    store64
	VADDPD (R11), Z0, Z0
	VADDPD 64(R11), Z1, Z1
	VADDPD 128(R11), Z2, Z2
	VADDPD 192(R11), Z3, Z3
	VADDPD 256(R11), Z4, Z4
	VADDPD 320(R11), Z5, Z5
	VADDPD 384(R11), Z6, Z6
	VADDPD 448(R11), Z7, Z7
	ADDQ $512, R11

store64:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, SI
	SUBQ $64, CX
	JMP  cols64

cols32:
	TESTQ CX, CX
	JZ    done64
	LANEMASKS(BX)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	TESTQ R12, R12
	JZ    start32
	VMOVUPD.Z (DI), K4, Z0
	VMOVUPD.Z 64(DI), K5, Z1
	VMOVUPD.Z 128(DI), K6, Z2
	VMOVUPD.Z 192(DI), K7, Z3

start32:
	MOVQ R8, AX
	CMPQ AX, R9
	JEQ  bias32

loop32:
	VBROADCASTSD (AX), Z8
	MOVQ 8(AX), DX
	ADDQ SI, DX
	VMULPD.Z (DX), Z8, K4, Z16
	VADDPD Z16, Z0, Z0
	VMULPD.Z 64(DX), Z8, K5, Z17
	VADDPD Z17, Z1, Z1
	VMULPD.Z 128(DX), Z8, K6, Z18
	VADDPD Z18, Z2, Z2
	VMULPD.Z 192(DX), Z8, K7, Z19
	VADDPD Z19, Z3, Z3
	ADDQ $16, AX
	CMPQ AX, R9
	JNE  loop32

bias32:
	TESTQ R11, R11
	JZ    store32
	VADDPD (R11), Z0, K4, Z0
	VADDPD 64(R11), Z1, K5, Z1
	VADDPD 128(R11), Z2, K6, Z2
	VADDPD 192(R11), Z3, K7, Z3
	ADDQ $256, R11

store32:
	VMOVUPD Z0, K4, (DI)
	VMOVUPD Z1, K5, 64(DI)
	VMOVUPD Z2, K6, 128(DI)
	VMOVUPD Z3, K7, 192(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JGT  cols32

done64:
	VZEROUPPER
	RET


// NZ2 and NZ4 add one left entry's products to one output row of
// nzNarrowAVX512: the entry at mem is broadcast, VCMPPD NEQ_UQ against +0
// sets K1 to every lane when it is neither +0 nor −0 (NaN counts, as in
// the scalar loops' av != 0) and to none when it is, and the products
// with the b row in Z16–Z17 (Z16–Z19) add into the row's accumulators
// under K1. A zero entry thus leaves its row's sums as they were, whatever
// its product with b would have been.
#define NZ2(mem, a0, a1) \
	VBROADCASTSD mem, Z24; \
	VCMPPD       $4, Z31, Z24, K1; \
	VMULPD       Z16, Z24, Z25; \
	VADDPD       Z25, a0, K1, a0; \
	VMULPD       Z17, Z24, Z26; \
	VADDPD       Z26, a1, K1, a1

#define NZ4(mem, a0, a1, a2, a3) \
	NZ2(mem, a0, a1); \
	VMULPD Z18, Z24, Z27; \
	VADDPD Z27, a2, K1, a2; \
	VMULPD Z19, Z24, Z28; \
	VADDPD Z28, a3, K1, a3

// func nzNarrowAVX512(out, left, b, bias *float64, rows, count, rs, ps, n int, acc bool)
//
// Rows [0, rows) of a·b or aᵀ·b (+bias) for n ≤ 32 columns, over count ≥ 1
// steps p of the left operand and of b: row i's entry at step p is
// left[i·rs + p·ps] and out[i·n + j] = Σ_p entry·b[p·n + j], skipping zero
// entries. No list is built: each row's zero test is an opmask (NZ2, NZ4).
// A row's n columns are two ZMM registers (n ≤ 16) or four (n ≤ 32),
// lanes past n under K4–K7 for every load and store. Rows run four at a
// time (n ≤ 16) or two (n ≤ 32), then one: each b row is loaded once for
// the pass, and the rows' add chains interleave, so a narrow row does not
// wait on its own add latency. A ZMM lane is one output element's
// accumulator and repeats the scalar loops' sequence: +0 (or out[j] when
// acc), the rounded product (VMULPD, then VADDPD — no FMA) for p ascending
// with zero entries skipped, then the bias.
TEXT ·nzNarrowAVX512(SB), NOSPLIT, $0-73
	MOVQ out+0(FP), DI
	MOVQ left+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bias+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ count+40(FP), R10
	MOVQ rs+48(FP), R11
	SHLQ $3, R11 // left row stride in bytes
	MOVQ ps+56(FP), R12
	SHLQ $3, R12 // left step stride in bytes
	MOVQ n+64(FP), CX
	LANEMASKS(AX)
	MOVQ CX, R13
	SHLQ $3, R13 // out and b row stride in bytes
	LEAQ (R11)(R11*2), R14 // three left rows
	LEAQ (R13)(R13*2), R15 // three out rows
	VPXORQ Z31, Z31, Z31
	TESTQ R8, R8
	JZ    narrow
	VMOVUPD.Z (R8), K4, Z20
	VMOVUPD.Z 64(R8), K5, Z21
	VMOVUPD.Z 128(R8), K6, Z22
	VMOVUPD.Z 192(R8), K7, Z23

narrow:
	CMPQ CX, $16
	JGT  pairs32

quads16:
	CMPQ R9, $4
	JLT  pairs16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CMPB acc+72(FP), $0
	JEQ  q16start
	VMOVUPD.Z (DI), K4, Z0
	VMOVUPD.Z 64(DI), K5, Z1
	VMOVUPD.Z (DI)(R13*1), K4, Z2
	VMOVUPD.Z 64(DI)(R13*1), K5, Z3
	VMOVUPD.Z (DI)(R13*2), K4, Z4
	VMOVUPD.Z 64(DI)(R13*2), K5, Z5
	VMOVUPD.Z (DI)(R15*1), K4, Z6
	VMOVUPD.Z 64(DI)(R15*1), K5, Z7

q16start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, CX

q16loop:
	VMOVUPD.Z (BX), K4, Z16
	VMOVUPD.Z 64(BX), K5, Z17
	NZ2((AX), Z0, Z1)
	NZ2((AX)(R11*1), Z2, Z3)
	NZ2((AX)(R11*2), Z4, Z5)
	NZ2((AX)(R14*1), Z6, Z7)
	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  q16loop
	TESTQ R8, R8
	JZ    q16store
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z1, Z1
	VADDPD Z20, Z2, Z2
	VADDPD Z21, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z20, Z6, Z6
	VADDPD Z21, Z7, Z7

q16store:
	VMOVUPD Z0, K4, (DI)
	VMOVUPD Z1, K5, 64(DI)
	VMOVUPD Z2, K4, (DI)(R13*1)
	VMOVUPD Z3, K5, 64(DI)(R13*1)
	VMOVUPD Z4, K4, (DI)(R13*2)
	VMOVUPD Z5, K5, 64(DI)(R13*2)
	VMOVUPD Z6, K4, (DI)(R15*1)
	VMOVUPD Z7, K5, 64(DI)(R15*1)
	LEAQ (SI)(R11*4), SI
	LEAQ (DI)(R13*4), DI
	SUBQ $4, R9
	JMP  quads16

pairs16:
	CMPQ R9, $2
	JLT  single16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	CMPB acc+72(FP), $0
	JEQ  p16start
	VMOVUPD.Z (DI), K4, Z0
	VMOVUPD.Z 64(DI), K5, Z1
	VMOVUPD.Z (DI)(R13*1), K4, Z2
	VMOVUPD.Z 64(DI)(R13*1), K5, Z3

p16start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, CX

p16loop:
	VMOVUPD.Z (BX), K4, Z16
	VMOVUPD.Z 64(BX), K5, Z17
	NZ2((AX), Z0, Z1)
	NZ2((AX)(R11*1), Z2, Z3)
	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  p16loop
	TESTQ R8, R8
	JZ    p16store
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z1, Z1
	VADDPD Z20, Z2, Z2
	VADDPD Z21, Z3, Z3

p16store:
	VMOVUPD Z0, K4, (DI)
	VMOVUPD Z1, K5, 64(DI)
	VMOVUPD Z2, K4, (DI)(R13*1)
	VMOVUPD Z3, K5, 64(DI)(R13*1)
	LEAQ (SI)(R11*2), SI
	LEAQ (DI)(R13*2), DI
	SUBQ $2, R9

single16:
	TESTQ R9, R9
	JZ    narrowdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	CMPB acc+72(FP), $0
	JEQ  s16start
	VMOVUPD.Z (DI), K4, Z0
	VMOVUPD.Z 64(DI), K5, Z1

s16start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, CX

s16loop:
	VMOVUPD.Z (BX), K4, Z16
	VMOVUPD.Z 64(BX), K5, Z17
	NZ2((AX), Z0, Z1)
	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  s16loop
	TESTQ R8, R8
	JZ    s16store
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z1, Z1

s16store:
	VMOVUPD Z0, K4, (DI)
	VMOVUPD Z1, K5, 64(DI)
	JMP  narrowdone

pairs32:
	CMPQ R9, $2
	JLT  single32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CMPB acc+72(FP), $0
	JEQ  p32start
	VMOVUPD.Z (DI), K4, Z0
	VMOVUPD.Z 64(DI), K5, Z1
	VMOVUPD.Z 128(DI), K6, Z2
	VMOVUPD.Z 192(DI), K7, Z3
	VMOVUPD.Z (DI)(R13*1), K4, Z4
	VMOVUPD.Z 64(DI)(R13*1), K5, Z5
	VMOVUPD.Z 128(DI)(R13*1), K6, Z6
	VMOVUPD.Z 192(DI)(R13*1), K7, Z7

p32start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, CX

p32loop:
	VMOVUPD.Z (BX), K4, Z16
	VMOVUPD.Z 64(BX), K5, Z17
	VMOVUPD.Z 128(BX), K6, Z18
	VMOVUPD.Z 192(BX), K7, Z19
	NZ4((AX), Z0, Z1, Z2, Z3)
	NZ4((AX)(R11*1), Z4, Z5, Z6, Z7)
	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  p32loop
	TESTQ R8, R8
	JZ    p32store
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z1, Z1
	VADDPD Z22, Z2, Z2
	VADDPD Z23, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7

p32store:
	VMOVUPD Z0, K4, (DI)
	VMOVUPD Z1, K5, 64(DI)
	VMOVUPD Z2, K6, 128(DI)
	VMOVUPD Z3, K7, 192(DI)
	VMOVUPD Z4, K4, (DI)(R13*1)
	VMOVUPD Z5, K5, 64(DI)(R13*1)
	VMOVUPD Z6, K6, 128(DI)(R13*1)
	VMOVUPD Z7, K7, 192(DI)(R13*1)
	LEAQ (SI)(R11*2), SI
	LEAQ (DI)(R13*2), DI
	SUBQ $2, R9
	JMP  pairs32

single32:
	TESTQ R9, R9
	JZ    narrowdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	CMPB acc+72(FP), $0
	JEQ  s32start
	VMOVUPD.Z (DI), K4, Z0
	VMOVUPD.Z 64(DI), K5, Z1
	VMOVUPD.Z 128(DI), K6, Z2
	VMOVUPD.Z 192(DI), K7, Z3

s32start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, CX

s32loop:
	VMOVUPD.Z (BX), K4, Z16
	VMOVUPD.Z 64(BX), K5, Z17
	VMOVUPD.Z 128(BX), K6, Z18
	VMOVUPD.Z 192(BX), K7, Z19
	NZ4((AX), Z0, Z1, Z2, Z3)
	ADDQ R12, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  s32loop
	TESTQ R8, R8
	JZ    s32store
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z1, Z1
	VADDPD Z22, Z2, Z2
	VADDPD Z23, Z3, Z3

s32store:
	VMOVUPD Z0, K4, (DI)
	VMOVUPD Z1, K5, 64(DI)
	VMOVUPD Z2, K6, 128(DI)
	VMOVUPD Z3, K7, 192(DI)

narrowdone:
	VZEROUPPER
	RET

// func listKernel(list *nonzero, left *float64, count, ps, off, step int) int
//
// nzKernel's list for one output row: for each of the count values
// left[0], left[ps], …, store the entry {value, off} at list[c] and add 1
// to c when the value is not ±0, so the next entry overwrites a zero's.
// No branch depends on the data: at the workloads' 50–95 % zeros one
// would mispredict. NaN counts as nonzero, as in the scalar loops' av != 0.
TEXT ·listKernel(SB), NOSPLIT, $0-56
	MOVQ list+0(FP), DI
	MOVQ left+8(FP), SI
	MOVQ count+16(FP), CX
	MOVQ ps+24(FP), R8
	SHLQ $3, R8
	MOVQ off+32(FP), R9
	MOVQ step+40(FP), R10
	XORQ AX, AX
	TESTQ CX, CX
	JZ   listdone

listloop:
	MOVQ (SI), DX
	MOVQ AX, BX
	SHLQ $4, BX
	MOVQ DX, (DI)(BX*1)
	MOVQ R9, 8(DI)(BX*1)
	SHLQ $1, DX // drop the sign: 0 exactly for ±0
	NEGQ DX     // CF = DX != 0
	ADCQ $0, AX
	ADDQ R8, SI
	ADDQ R10, R9
	DECQ CX
	JNZ  listloop

listdone:
	MOVQ AX, ret+48(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
