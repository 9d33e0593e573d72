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
