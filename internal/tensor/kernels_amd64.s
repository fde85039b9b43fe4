//go:build !purego

#include "textflag.h"

// AVX2 kernels, and the 1×1 convolution's AVX-512 tile, under the
// summation-order contract (DESIGN.md §4.6). The eight (sixteen) lanes of a
// register are different output elements; each element receives its terms
// one at a time, in the portable loop's order, through a multiply and a
// separate add — two roundings, as the Go compiler emits on amd64. No fused
// multiply-add appears in this file: it would round once and move bits; nor
// does embedded rounding or a write to MXCSR.
//
// VEX and EVEX operand order below is Go's: OP src2, src1, dst. VMAXPS/VMINPS return
// src2 when either operand is NaN or both are zero, which is what makes
// them reproduce Go's `if a > b` branches; the operand order at each use is
// therefore part of the contract. For a multiply or an add the order decides
// one thing only, whose payload survives when both operands are NaN (src1's);
// the compiler commutes those as register allocation suits, so no payload is
// promised — the kernels follow what it emits today, x·w and product + sum.

DATA absmask<>+0(SB)/4, $0x7fffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $4
DATA signmask<>+0(SB)/4, $0x80000000
GLOBL signmask<>(SB), RODATA|NOPTR, $4
DATA half<>+0(SB)/4, $0x3f000000
GLOBL half<>(SB), RODATA|NOPTR, $4
DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU has it (CPUID.7:EBX[5]) and the OS saves the
// YMM state (CPUID.1:ECX OSXSAVE+AVX, then XCR0[2:1] = 11b).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// AVX-512 is usable when the CPU has AVX512F (CPUID.7:EBX[16]) and the OS
// saves the opmask and ZMM state besides the YMM state (CPUID.1:ECX OSXSAVE,
// then XCR0[7:5] and XCR0[2:1] all set). Only AVX512F instructions are used.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $16, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// The 1×1 convolution's register tile: four output rows by as many adjacent
// plane elements as the width allows — 64 with AVX-512, 16 with AVX2. Each
// element of a row is
//
//	d_k[i] = (Σ_ch w_k[ch]·x[ch·xstride+i]) + bias[k]
//
// with ch ascending from a zero accumulator: per channel one VMULPS (x·w)
// and one VADDPS (product + sum) per lane, and the bias added once, in the
// store. The four rows' weights for a channel are broadcast once and meet
// every input register of that channel; the accumulators stay in registers
// across all c channels and are stored once, so the destination is only
// written. A row may appear more than once in d (and its weight in w): it is
// computed and stored each time, the same way.
//
// Shared register use: R8 the row pointers d, R9–R12 the four weight rows,
// SI x, DX x's channel pitch in bytes, R13 c, CX elements left, DI the byte
// offset of the current tile in x and in every row, AX the current
// channel's input (the row pointer while storing), BX the channel (the bias
// pointer while the AVX2 tile stores).

// One input register against the four rows' broadcast weights.
#define QTERM512(x, a0, a1, a2, a3) \
	VMULPS Z16, x, Z24          \
	VADDPS a0, Z24, a0          \
	VMULPS Z17, x, Z25          \
	VADDPS a1, Z25, a1          \
	VMULPS Z18, x, Z26          \
	VADDPS a2, Z26, a2          \
	VMULPS Z19, x, Z27          \
	VADDPS a3, Z27, a3

#define QWEIGHTS512 \
	VBROADCASTSS (R9)(BX*4), Z16  \
	VBROADCASTSS (R10)(BX*4), Z17 \
	VBROADCASTSS (R11)(BX*4), Z18 \
	VBROADCASTSS (R12)(BX*4), Z19

// func conv1x1QuadAVX512(d, w *[4]*float32, n int, x *float32, xstride, c int, bias *[4]float32)
//
// The tile for n ≥ 1 elements. The main loop takes 64 elements of four rows
// (sixteen accumulators); the last n mod 64 go through a 32- and a 16-wide
// loop whose last register is masked: lanes past the row are loaded as
// zeros and never stored, so nothing is read or written past the row and
// no element is computed twice.
TEXT ·conv1x1QuadAVX512(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), R8
	MOVQ w+8(FP), AX
	MOVQ 0(AX), R9
	MOVQ 8(AX), R10
	MOVQ 16(AX), R11
	MOVQ 24(AX), R12
	MOVQ n+16(FP), CX
	MOVQ x+24(FP), SI
	MOVQ xstride+32(FP), DX
	SHLQ $2, DX
	MOVQ c+40(FP), R13
	MOVQ bias+48(FP), AX
	VBROADCASTSS 0(AX), Z28
	VBROADCASTSS 4(AX), Z29
	VBROADCASTSS 8(AX), Z30
	VBROADCASTSS 12(AX), Z31
	XORQ DI, DI

q512w64:
	CMPQ CX, $64
	JLT  q512w32
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	LEAQ (SI)(DI*1), AX
	XORQ BX, BX
q512w64ch:
	QWEIGHTS512
	VMOVUPS (AX), Z20
	VMOVUPS 64(AX), Z21
	VMOVUPS 128(AX), Z22
	VMOVUPS 192(AX), Z23
	QTERM512(Z20, Z0, Z1, Z2, Z3)
	QTERM512(Z21, Z4, Z5, Z6, Z7)
	QTERM512(Z22, Z8, Z9, Z10, Z11)
	QTERM512(Z23, Z12, Z13, Z14, Z15)
	ADDQ DX, AX
	INCQ BX
	CMPQ BX, R13
	JLT  q512w64ch
	// Row k holds Z(k), Z(4+k), Z(8+k), Z(12+k); its bias is Z(28+k).
	MOVQ 0(R8), AX
	VADDPS Z28, Z0, Z0
	VADDPS Z28, Z4, Z4
	VADDPS Z28, Z8, Z8
	VADDPS Z28, Z12, Z12
	VMOVUPS Z0, (AX)(DI*1)
	VMOVUPS Z4, 64(AX)(DI*1)
	VMOVUPS Z8, 128(AX)(DI*1)
	VMOVUPS Z12, 192(AX)(DI*1)
	MOVQ 8(R8), AX
	VADDPS Z29, Z1, Z1
	VADDPS Z29, Z5, Z5
	VADDPS Z29, Z9, Z9
	VADDPS Z29, Z13, Z13
	VMOVUPS Z1, (AX)(DI*1)
	VMOVUPS Z5, 64(AX)(DI*1)
	VMOVUPS Z9, 128(AX)(DI*1)
	VMOVUPS Z13, 192(AX)(DI*1)
	MOVQ 16(R8), AX
	VADDPS Z30, Z2, Z2
	VADDPS Z30, Z6, Z6
	VADDPS Z30, Z10, Z10
	VADDPS Z30, Z14, Z14
	VMOVUPS Z2, (AX)(DI*1)
	VMOVUPS Z6, 64(AX)(DI*1)
	VMOVUPS Z10, 128(AX)(DI*1)
	VMOVUPS Z14, 192(AX)(DI*1)
	MOVQ 24(R8), AX
	VADDPS Z31, Z3, Z3
	VADDPS Z31, Z7, Z7
	VADDPS Z31, Z11, Z11
	VADDPS Z31, Z15, Z15
	VMOVUPS Z3, (AX)(DI*1)
	VMOVUPS Z7, 64(AX)(DI*1)
	VMOVUPS Z11, 128(AX)(DI*1)
	VMOVUPS Z15, 192(AX)(DI*1)
	ADDQ $256, DI
	SUBQ $64, CX
	JMP  q512w64

q512w32:
	// 16 < CX < 64: 32 elements, the second register's lanes in K2.
	CMPQ CX, $16
	JLE  q512w16
	MOVL $0xffff, AX
	CMPQ CX, $32
	JGE  q512w32mask
	MOVQ CX, BX
	SUBQ $16, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	MOVQ BX, CX
q512w32mask:
	KMOVW AX, K2
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	LEAQ (SI)(DI*1), AX
	XORQ BX, BX
q512w32ch:
	QWEIGHTS512
	VMOVUPS (AX), Z20
	VMOVUPS.Z 64(AX), K2, Z21
	QTERM512(Z20, Z0, Z1, Z2, Z3)
	QTERM512(Z21, Z4, Z5, Z6, Z7)
	ADDQ DX, AX
	INCQ BX
	CMPQ BX, R13
	JLT  q512w32ch
	MOVQ 0(R8), AX
	VADDPS Z28, Z0, Z0
	VADDPS Z28, Z4, Z4
	VMOVUPS Z0, (AX)(DI*1)
	VMOVUPS Z4, K2, 64(AX)(DI*1)
	MOVQ 8(R8), AX
	VADDPS Z29, Z1, Z1
	VADDPS Z29, Z5, Z5
	VMOVUPS Z1, (AX)(DI*1)
	VMOVUPS Z5, K2, 64(AX)(DI*1)
	MOVQ 16(R8), AX
	VADDPS Z30, Z2, Z2
	VADDPS Z30, Z6, Z6
	VMOVUPS Z2, (AX)(DI*1)
	VMOVUPS Z6, K2, 64(AX)(DI*1)
	MOVQ 24(R8), AX
	VADDPS Z31, Z3, Z3
	VADDPS Z31, Z7, Z7
	VMOVUPS Z3, (AX)(DI*1)
	VMOVUPS Z7, K2, 64(AX)(DI*1)
	ADDQ $128, DI
	SUBQ $32, CX
	JG   q512w32
	JMP  q512done

q512w16:
	// 0 ≤ CX ≤ 16: one register, its lanes in K1.
	TESTQ CX, CX
	JZ    q512done
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	LEAQ (SI)(DI*1), AX
	XORQ BX, BX
q512w16ch:
	QWEIGHTS512
	VMOVUPS.Z (AX), K1, Z20
	QTERM512(Z20, Z0, Z1, Z2, Z3)
	ADDQ DX, AX
	INCQ BX
	CMPQ BX, R13
	JLT  q512w16ch
	MOVQ 0(R8), AX
	VADDPS Z28, Z0, Z0
	VMOVUPS Z0, K1, (AX)(DI*1)
	MOVQ 8(R8), AX
	VADDPS Z29, Z1, Z1
	VMOVUPS Z1, K1, (AX)(DI*1)
	MOVQ 16(R8), AX
	VADDPS Z30, Z2, Z2
	VMOVUPS Z2, K1, (AX)(DI*1)
	MOVQ 24(R8), AX
	VADDPS Z31, Z3, Z3
	VMOVUPS Z3, K1, (AX)(DI*1)

q512done:
	VZEROUPPER
	RET

// One input register against the four rows' broadcast weights (Y8–Y11).
#define QTERM256(x, a0, a1, a2, a3) \
	VMULPS Y8, x, Y14           \
	VADDPS a0, Y14, a0          \
	VMULPS Y9, x, Y15           \
	VADDPS a1, Y15, a1          \
	VMULPS Y10, x, Y14          \
	VADDPS a2, Y14, a2          \
	VMULPS Y11, x, Y15          \
	VADDPS a3, Y15, a3

#define QWEIGHTS256 \
	VBROADCASTSS (R9)(BX*4), Y8  \
	VBROADCASTSS (R10)(BX*4), Y9 \
	VBROADCASTSS (R11)(BX*4), Y10 \
	VBROADCASTSS (R12)(BX*4), Y11

// The biases, into the weights' registers once the channel loop is done.
#define QBIAS256(b) \
	VBROADCASTSS 0(b), Y8  \
	VBROADCASTSS 4(b), Y9  \
	VBROADCASTSS 8(b), Y10 \
	VBROADCASTSS 12(b), Y11

// func conv1x1QuadAVX2(d, w *[4]*float32, n int, x *float32, xstride, c int, bias *[4]float32)
//
// The tile for n ≥ 8 elements: 16 elements of four rows (eight accumulators,
// four weights, two inputs and two products fill the sixteen registers). The
// last n mod 16 are one more tile, 8 wide when at most eight are left, that
// ends at the row's end and overlaps the one before — the same elements
// computed the same way twice, never a load or a store past the end; a row
// of 8 to 15 elements is two 8-wide tiles.
TEXT ·conv1x1QuadAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), R8
	MOVQ w+8(FP), AX
	MOVQ 0(AX), R9
	MOVQ 8(AX), R10
	MOVQ 16(AX), R11
	MOVQ 24(AX), R12
	MOVQ n+16(FP), CX
	MOVQ x+24(FP), SI
	MOVQ xstride+32(FP), DX
	SHLQ $2, DX
	MOVQ c+40(FP), R13
	XORQ DI, DI
	CMPQ CX, $16
	JLT  q256w8

q256w16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ (SI)(DI*1), AX
	XORQ BX, BX
q256w16ch:
	QWEIGHTS256
	VMOVUPS (AX), Y12
	VMOVUPS 32(AX), Y13
	QTERM256(Y12, Y0, Y1, Y2, Y3)
	QTERM256(Y13, Y4, Y5, Y6, Y7)
	ADDQ DX, AX
	INCQ BX
	CMPQ BX, R13
	JLT  q256w16ch
	MOVQ bias+48(FP), BX
	QBIAS256(BX)
	MOVQ 0(R8), AX
	VADDPS Y8, Y0, Y0
	VADDPS Y8, Y4, Y4
	VMOVUPS Y0, (AX)(DI*1)
	VMOVUPS Y4, 32(AX)(DI*1)
	MOVQ 8(R8), AX
	VADDPS Y9, Y1, Y1
	VADDPS Y9, Y5, Y5
	VMOVUPS Y1, (AX)(DI*1)
	VMOVUPS Y5, 32(AX)(DI*1)
	MOVQ 16(R8), AX
	VADDPS Y10, Y2, Y2
	VADDPS Y10, Y6, Y6
	VMOVUPS Y2, (AX)(DI*1)
	VMOVUPS Y6, 32(AX)(DI*1)
	MOVQ 24(R8), AX
	VADDPS Y11, Y3, Y3
	VADDPS Y11, Y7, Y7
	VMOVUPS Y3, (AX)(DI*1)
	VMOVUPS Y7, 32(AX)(DI*1)
	ADDQ $64, DI
	SUBQ $16, CX
	JZ   q256done
	CMPQ CX, $16
	JGE  q256w16
	// 0 < CX < 16 elements are left: step back to the last eight, or to
	// the last sixteen when more than eight are left.
	CMPQ CX, $8
	JG   q256last16
	LEAQ -32(DI)(CX*4), DI
	MOVQ $8, CX
	JMP  q256w8
q256last16:
	LEAQ -64(DI)(CX*4), DI
	MOVQ $16, CX
	JMP  q256w16

q256w8:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (SI)(DI*1), AX
	XORQ BX, BX
q256w8ch:
	QWEIGHTS256
	VMOVUPS (AX), Y12
	QTERM256(Y12, Y0, Y1, Y2, Y3)
	ADDQ DX, AX
	INCQ BX
	CMPQ BX, R13
	JLT  q256w8ch
	MOVQ bias+48(FP), BX
	QBIAS256(BX)
	MOVQ 0(R8), AX
	VADDPS Y8, Y0, Y0
	VMOVUPS Y0, (AX)(DI*1)
	MOVQ 8(R8), AX
	VADDPS Y9, Y1, Y1
	VMOVUPS Y1, (AX)(DI*1)
	MOVQ 16(R8), AX
	VADDPS Y10, Y2, Y2
	VMOVUPS Y2, (AX)(DI*1)
	MOVQ 24(R8), AX
	VADDPS Y11, Y3, Y3
	VMOVUPS Y3, (AX)(DI*1)
	ADDQ $32, DI
	SUBQ $8, CX
	JLE  q256done
	// 0 < CX < 8 elements are left: step back to the last eight.
	LEAQ -32(DI)(CX*4), DI
	MOVQ $8, CX
	JMP  q256w8

q256done:
	VZEROUPPER
	RET

// The depthwise interior kernels compute a rows×cols rectangle of outputs
// whose windows lie wholly inside the plane, eight adjacent outputs of one
// row per register: acc = bias, then acc += x·k tap by tap, ky outer and kx
// inner. cols ≥ 8; when cols is not a multiple of 8 the last register of a
// row is the eight outputs that end at the row's end, overlapping the one
// before it — the same outputs computed the same way twice, so no load ever
// reaches past the last tap of the last output and no store past cols.
//
// Shared register use: DI dst row, SI first tap of the row's first output,
// R8/R9 dst/in row pitch in bytes, R10 rows left, R11 cols, R12 kernel,
// R13 end of kernel, R14 kw (kw−1 at stride 2), BX first output of the current register, DX its first
// tap in the current kernel row, CX current kernel element, AX kx.

// func dwInteriorS1AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, kh, kw int, bias float32)
TEXT ·dwInteriorS1AVX2(SB), NOSPLIT, $0-76
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ in+16(FP), SI
	MOVQ inStride+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ ker+48(FP), R12
	MOVQ kh+56(FP), R13
	IMULQ kw+64(FP), R13
	LEAQ (R12)(R13*4), R13
	MOVQ kw+64(FP), R14
	VBROADCASTSS bias+72(FP), Y15

s1row:
	XORQ BX, BX
s1col:
	LEAQ 8(BX), AX
	CMPQ AX, R11
	JLE  s1vec
	LEAQ -8(R11), BX
s1vec:
	VMOVAPS Y15, Y0
	LEAQ (SI)(BX*4), DX
	MOVQ R12, CX
s1ky:
	XORQ AX, AX
s1kx:
	VBROADCASTSS (CX), Y1
	VMOVUPS (DX)(AX*4), Y2
	VMULPS Y1, Y2, Y2
	VADDPS Y0, Y2, Y0
	ADDQ $4, CX
	INCQ AX
	CMPQ AX, R14
	JLT  s1kx
	ADDQ R9, DX
	CMPQ CX, R13
	JLT  s1ky
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	CMPQ BX, R11
	JLT  s1col
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNZ  s1row
	VZEROUPPER
	RET

// func dwInteriorS2AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, kh, kw int, bias float32)
//
// Stride 2: output j of a register reads input 2j+kx. Two loads cover
// sixteen consecutive inputs and VSHUFPS keeps every second one — the even
// ones of the loads at offset 0 for kx = 0, the odd ones of the loads at
// offset kx−1 for every later tap, so the highest input read is the last
// tap of the last output (kw ≥ 2). VSHUFPS works per 128-bit half and
// leaves the outputs in the order 0 1 4 5 | 2 3 6 7; every tap lands in that
// order, lanes never mix, and one VPERMPD before the store undoes it.
TEXT ·dwInteriorS2AVX2(SB), NOSPLIT, $0-76
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ in+16(FP), SI
	MOVQ inStride+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ ker+48(FP), R12
	MOVQ kh+56(FP), R13
	IMULQ kw+64(FP), R13
	LEAQ (R12)(R13*4), R13
	MOVQ kw+64(FP), R14
	DECQ R14
	VBROADCASTSS bias+72(FP), Y15

s2row:
	XORQ BX, BX
s2col:
	LEAQ 8(BX), AX
	CMPQ AX, R11
	JLE  s2vec
	LEAQ -8(R11), BX
s2vec:
	VMOVAPS Y15, Y0
	LEAQ (SI)(BX*8), DX
	MOVQ R12, CX
s2ky:
	VBROADCASTSS (CX), Y1
	VMOVUPS (DX), Y2
	VSHUFPS $0x88, 32(DX), Y2, Y2
	VMULPS Y1, Y2, Y2
	VADDPS Y0, Y2, Y0
	ADDQ $4, CX
	XORQ AX, AX
s2kx:
	VBROADCASTSS (CX), Y1
	VMOVUPS (DX)(AX*4), Y2
	VSHUFPS $0xDD, 32(DX)(AX*4), Y2, Y2
	VMULPS Y1, Y2, Y2
	VADDPS Y0, Y2, Y0
	ADDQ $4, CX
	INCQ AX
	CMPQ AX, R14
	JLT  s2kx
	ADDQ R9, DX
	CMPQ CX, R13
	JLT  s2ky
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	CMPQ BX, R11
	JLT  s2col
	ADDQ R8, DI
	LEAQ (SI)(R9*2), SI
	DECQ R10
	JNZ  s2row
	VZEROUPPER
	RET

// The 3×3 kernels are the two above with the nine taps unrolled and their
// weights held in Y6–Y14 (bias in Y15). Same registers otherwise; DX is the
// first tap of the current register's window.

#define DW3WEIGHTS \
	VBROADCASTSS (R12), Y6    \
	VBROADCASTSS 4(R12), Y7   \
	VBROADCASTSS 8(R12), Y8   \
	VBROADCASTSS 12(R12), Y9  \
	VBROADCASTSS 16(R12), Y10 \
	VBROADCASTSS 20(R12), Y11 \
	VBROADCASTSS 24(R12), Y12 \
	VBROADCASTSS 28(R12), Y13 \
	VBROADCASTSS 32(R12), Y14

// acc += x·k for the tap at addr.
#define TAP(addr, k) \
	VMOVUPS addr, Y1   \
	VMULPS k, Y1, Y1   \
	VADDPS Y0, Y1, Y0

// func dwInterior3S1AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, bias float32)
TEXT ·dwInterior3S1AVX2(SB), NOSPLIT, $0-60
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ in+16(FP), SI
	MOVQ inStride+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ ker+48(FP), R12
	DW3WEIGHTS
	VBROADCASTSS bias+56(FP), Y15
k3s1row:
	XORQ BX, BX
k3s1col:
	LEAQ 8(BX), AX
	CMPQ AX, R11
	JLE  k3s1vec
	LEAQ -8(R11), BX
k3s1vec:
	VMOVAPS Y15, Y0
	LEAQ (SI)(BX*4), DX
	TAP((DX), Y6)
	TAP(4(DX), Y7)
	TAP(8(DX), Y8)
	TAP((DX)(R9*1), Y9)
	TAP(4(DX)(R9*1), Y10)
	TAP(8(DX)(R9*1), Y11)
	TAP((DX)(R9*2), Y12)
	TAP(4(DX)(R9*2), Y13)
	TAP(8(DX)(R9*2), Y14)
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	CMPQ BX, R11
	JLT  k3s1col
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNZ  k3s1row
	VZEROUPPER
	RET

// One kernel row at stride 2: the loads at offset 0 give taps 0 (even
// inputs) and 1 (odd inputs), the loads at offset 1 give tap 2 (odd inputs).
#define ROW3S2(a0, a8, a1, a9, k0, k1, k2) \
	VMOVUPS a0, Y1             \
	VMOVUPS a8, Y2             \
	VSHUFPS $0x88, Y2, Y1, Y3  \
	VSHUFPS $0xDD, Y2, Y1, Y4  \
	VMOVUPS a1, Y5             \
	VSHUFPS $0xDD, a9, Y5, Y5  \
	VMULPS k0, Y3, Y3          \
	VADDPS Y0, Y3, Y0          \
	VMULPS k1, Y4, Y4          \
	VADDPS Y0, Y4, Y0          \
	VMULPS k2, Y5, Y5          \
	VADDPS Y0, Y5, Y0

// func dwInterior3S2AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, bias float32)
TEXT ·dwInterior3S2AVX2(SB), NOSPLIT, $0-60
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ in+16(FP), SI
	MOVQ inStride+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ ker+48(FP), R12
	DW3WEIGHTS
	VBROADCASTSS bias+56(FP), Y15
k3s2row:
	XORQ BX, BX
k3s2col:
	LEAQ 8(BX), AX
	CMPQ AX, R11
	JLE  k3s2vec
	LEAQ -8(R11), BX
k3s2vec:
	VMOVAPS Y15, Y0
	LEAQ (SI)(BX*8), DX
	ROW3S2((DX), 32(DX), 4(DX), 36(DX), Y6, Y7, Y8)
	ROW3S2((DX)(R9*1), 32(DX)(R9*1), 4(DX)(R9*1), 36(DX)(R9*1), Y9, Y10, Y11)
	ROW3S2((DX)(R9*2), 32(DX)(R9*2), 4(DX)(R9*2), 36(DX)(R9*2), Y12, Y13, Y14)
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	CMPQ BX, R11
	JLT  k3s2col
	ADDQ R8, DI
	LEAQ (SI)(R9*2), SI
	DECQ R10
	JNZ  k3s2row
	VZEROUPPER
	RET

// func maxAbsAVX2(x *float32, n int) float32
//
// The largest |x[i]| over i in [0, n), n a positive multiple of 8, skipping
// NaNs as MaxAbs's `if v > m` does: VMAXPS m, v, m is v > m ? v : m, and
// returns m when v is NaN. The maximum of non-NaN values does not depend on
// the order they are compared in, so the lanes may be folded at the end.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS absmask<>(SB), Y15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
max32:
	CMPQ CX, $32
	JLT  max8
	VANDPS (SI), Y15, Y4
	VANDPS 32(SI), Y15, Y5
	VANDPS 64(SI), Y15, Y6
	VANDPS 96(SI), Y15, Y7
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	ADDQ $128, SI
	SUBQ $32, CX
	JMP  max32
max8:
	CMPQ CX, $8
	JLT  maxfold
	VANDPS (SI), Y15, Y4
	VMAXPS Y0, Y4, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JMP  max8
maxfold:
	VMAXPS Y1, Y0, Y0
	VMAXPS Y3, Y2, Y2
	VMAXPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x4e, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0xb1, X0, X1
	VMAXPS X1, X0, X0
	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET

// func fakeQuantAVX2(dst, src *float32, n int, inv, scale, qmax float32)
//
// dst[i] = float32(code)·scale with code = clampRound(src[i]·inv, −qmax,
// qmax) converted to an integer, for i in [0, n), n a positive multiple of
// 8 — Quantize followed by Dequantize, operation for operation:
//
//	t = src·inv
//	r = trunc(t); t−r is exact, and |t−r| ≥ ½ adds copysign(1, t): math.Round
//	r < −qmax → −qmax, then r > qmax → qmax, NaN passing through both
//	NaN → 0, as the float-to-integer conversion gives on amd64
//	to int32 and back: −0 becomes +0
//	· scale
TEXT ·fakeQuantAVX2(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y15
	VBROADCASTSS scale+28(FP), Y14
	VBROADCASTSS qmax+32(FP), Y13
	VBROADCASTSS signmask<>(SB), Y11
	VXORPS Y13, Y11, Y12
	VBROADCASTSS absmask<>(SB), Y10
	VBROADCASTSS half<>(SB), Y9
	VBROADCASTSS one<>(SB), Y8
fq8:
	VMULPS (SI), Y15, Y0
	VROUNDPS $3, Y0, Y1
	VSUBPS Y1, Y0, Y2
	VANDPS Y10, Y2, Y2
	VCMPPS $0x1d, Y9, Y2, Y2
	VANDPS Y11, Y0, Y3
	VORPS Y8, Y3, Y3
	VANDPS Y2, Y3, Y3
	VADDPS Y3, Y1, Y1
	VMAXPS Y1, Y12, Y1
	VMINPS Y1, Y13, Y1
	VCMPPS $7, Y0, Y0, Y2
	VANDPS Y2, Y1, Y1
	VCVTTPS2DQ Y1, Y1
	VCVTDQ2PS Y1, Y1
	VMULPS Y14, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  fq8
	VZEROUPPER
	RET

// The side-column kernel puts rows in the lanes. The few outputs at the left
// and right ends of a depthwise row lose some kernel columns to the padding —
// the same columns on every row — so down a column the outputs of eight rows
// are eight independent sums over the same taps: acc = bias, then acc += x·k,
// ky outer and kx inner over the kernel columns that are inside, a tap in the
// padding skipped, never multiplied by a zero. For each kernel row the 8×8
// block of the input that holds those taps — eight input rows a lane pitch
// (stride·w) apart, eight columns at the plane's edge — is transposed in
// registers and spilled, so that spilled row i is input column i down the
// eight lanes, and every tap is one aligned-in-the-block load.

// Y0–Y3 = columns 0|4, 1|5, 2|6, 3|7 of the four rows at base (pitch R9,
// AX = 3·R9); Y4–Y7 scratch.
#define QUADROWS(base) \
	VMOVUPS (base), Y0        \
	VMOVUPS (base)(R9*1), Y1  \
	VMOVUPS (base)(R9*2), Y2  \
	VMOVUPS (base)(AX*1), Y3  \
	VUNPCKLPS Y1, Y0, Y4      \
	VUNPCKHPS Y1, Y0, Y5      \
	VUNPCKLPS Y3, Y2, Y6      \
	VUNPCKHPS Y3, Y2, Y7      \
	VUNPCKLPD Y6, Y4, Y0      \
	VUNPCKHPD Y6, Y4, Y1      \
	VUNPCKLPD Y7, Y5, Y2      \
	VUNPCKHPD Y7, Y5, Y3

// Y8–Y11 = the quad QUADROWS left, while it makes the other.
#define SAVEQUADS \
	VMOVAPS Y0, Y8  \
	VMOVAPS Y1, Y9  \
	VMOVAPS Y2, Y10 \
	VMOVAPS Y3, Y11

// One column of all eight rows from each half of the two quads, spilled at
// byte offsets i and i4.
#define SPILLCOLS(lo, hi, i, i4) \
	VPERM2F128 $0x20, hi, lo, Y4 \
	VPERM2F128 $0x31, hi, lo, Y5 \
	VMOVUPS Y4, i(SP)            \
	VMOVUPS Y5, i4(SP)

// acc += x·k over one side column's taps in the current kernel row: desc
// holds {output column, first block column, first kernel column, taps}.
#define SIDETAPS(desc, acc, loop, done) \
	MOVQ  desc+24(R10), CX   \
	TESTQ CX, CX             \
	JZ    done               \
	MOVQ  desc+8(R10), AX    \
	SHLQ  $5, AX             \
	ADDQ  SP, AX             \
	MOVQ  desc+16(R10), BX   \
	LEAQ  (R12)(BX*4), BX    \
loop:                        \
	VBROADCASTSS (BX), Y5    \
	VMOVUPS (AX), Y4         \
	VMULPS Y5, Y4, Y4        \
	VADDPS acc, Y4, acc      \
	ADDQ  $32, AX            \
	ADDQ  $4, BX             \
	DECQ  CX                 \
	JNZ   loop               \
done:

// The eight lanes of acc down output column desc[0], one row pitch (R8, AX =
// 3·R8) apart.
#define SCATTER(desc, acc, xacc) \
	MOVQ desc(R10), BX              \
	LEAQ (DI)(BX*4), BX             \
	VEXTRACTF128 $1, acc, X4        \
	VMOVSS xacc, (BX)               \
	VEXTRACTPS $1, xacc, (BX)(R8*1) \
	VEXTRACTPS $2, xacc, (BX)(R8*2) \
	VEXTRACTPS $3, xacc, (BX)(AX*1) \
	LEAQ (BX)(R8*4), BX             \
	VMOVSS X4, (BX)                 \
	VEXTRACTPS $1, X4, (BX)(R8*1)   \
	VEXTRACTPS $2, X4, (BX)(R8*2)   \
	VEXTRACTPS $3, X4, (BX)(AX*1)

// func dwSidesAVX2(dst *float32, dstStride int, in *float32, lanePitch, rowPitch int, ker *float32, kh, kw int, cols *[3][4]int, ncols int, bias float32)
//
// Eight output rows of up to three side columns of one plane. dst is the
// first of the rows (column 0), in the block's top-left element for kernel
// row 0: lane j reads input rows in+j·lanePitch+ky·rowPitch.
TEXT ·dwSidesAVX2(SB), NOSPLIT, $256-84
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ in+16(FP), SI
	MOVQ lanePitch+24(FP), R9
	SHLQ $2, R9
	MOVQ rowPitch+32(FP), R11
	SHLQ $2, R11
	MOVQ ker+40(FP), R12
	MOVQ kh+48(FP), R13
	MOVQ cols+64(FP), R10
	MOVQ ncols+72(FP), DX
	VBROADCASTSS bias+80(FP), Y12
	VMOVAPS Y12, Y13
	VMOVAPS Y12, Y14
sideky:
	LEAQ (R9)(R9*2), AX
	LEAQ (SI)(R9*4), BX
	QUADROWS(BX)
	SAVEQUADS
	QUADROWS(SI)
	SPILLCOLS(Y0, Y8, 0, 128)
	SPILLCOLS(Y1, Y9, 32, 160)
	SPILLCOLS(Y2, Y10, 64, 192)
	SPILLCOLS(Y3, Y11, 96, 224)
	SIDETAPS(0, Y12, side0, side0done)
	CMPQ DX, $2
	JLT  sidenext
	SIDETAPS(32, Y13, side1, side1done)
	CMPQ DX, $3
	JLT  sidenext
	SIDETAPS(64, Y14, side2, side2done)
sidenext:
	ADDQ R11, SI
	MOVQ kw+56(FP), CX
	LEAQ (R12)(CX*4), R12
	DECQ R13
	JNZ  sideky
	LEAQ (R8)(R8*2), AX
	SCATTER(0, Y12, X12)
	CMPQ DX, $2
	JLT  sidesdone
	SCATTER(32, Y13, X13)
	CMPQ DX, $3
	JLT  sidesdone
	SCATTER(64, Y14, X14)
sidesdone:
	VZEROUPPER
	RET

// The row-reduction kernels put rows in the lanes: eight dot products against
// one vector (MatMulTransB: eight rows of the weight, eight output columns) or
// eight plane sums (AvgPoolGlobal: eight channels) advance together, each lane
// receiving its row's terms one at a time, first to last, in one float32
// accumulator that starts at zero. The rows lie along memory, so each step
// loads an 8×8 block — eight rows, eight consecutive terms — and transposes it
// (QUADROWS twice, then VPERM2F128 pairs the halves): vector q is term q of the
// eight rows. No transposed copy of a weight is kept anywhere.

// acc += a[off]·(term of the eight rows), the term picked from quads lo and
// hi by sel: $0x20 for terms 0–3, $0x31 for terms 4–7.
#define DOTTERM(sel, lo, hi, off, acc) \
	VPERM2F128 sel, hi, lo, Y4   \
	VBROADCASTSS off(R10), Y5    \
	VMULPS Y4, Y5, Y5            \
	VADDPS acc, Y5, acc

// One 8×8 block of the rows at base against a[0:8] (R10).
#define DOTBLOCK(base, acc) \
	LEAQ (base)(R9*4), BX            \
	QUADROWS(BX)                     \
	SAVEQUADS                        \
	QUADROWS(base)                   \
	DOTTERM($0x20, Y0, Y8, 0, acc)   \
	DOTTERM($0x20, Y1, Y9, 4, acc)   \
	DOTTERM($0x20, Y2, Y10, 8, acc)  \
	DOTTERM($0x20, Y3, Y11, 12, acc) \
	DOTTERM($0x31, Y0, Y8, 16, acc)  \
	DOTTERM($0x31, Y1, Y9, 20, acc)  \
	DOTTERM($0x31, Y2, Y10, 24, acc) \
	DOTTERM($0x31, Y3, Y11, 28, acc) \
	ADDQ $32, base

// func dotRowsAVX2(c, a *float32, blocks int, b *float32, bstride, chains int)
//
// c[j] = Σ_p a[p]·b[j·bstride+p] over p in [0, 8·blocks), p ascending from a
// zero accumulator, for j in [0, 8·chains), chains 1 or 2: two blocks of eight
// rows are two independent chains whose adds overlap. blocks ≥ 1.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R10
	MOVQ blocks+16(FP), CX
	MOVQ b+24(FP), SI
	MOVQ bstride+32(FP), R9
	SHLQ $2, R9
	MOVQ chains+40(FP), DX
	LEAQ (R9)(R9*2), AX
	LEAQ (SI)(R9*8), R11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
dotblock:
	DOTBLOCK(SI, Y12)
	CMPQ DX, $2
	JLT  dotnext
	DOTBLOCK(R11, Y13)
dotnext:
	ADDQ $32, R10
	DECQ CX
	JNZ  dotblock
	VMOVUPS Y12, (DI)
	CMPQ DX, $2
	JLT  dotdone
	VMOVUPS Y13, 32(DI)
dotdone:
	VZEROUPPER
	RET

#define SUMTERM(sel, lo, hi) \
	VPERM2F128 sel, hi, lo, Y4 \
	VADDPS Y4, Y12, Y12

// func sumRowsAVX2(dst, x *float32, stride, blocks int)
//
// dst[j] = Σ_i x[j·stride+i] over i in [0, 8·blocks), i ascending from zero,
// for j in [0, 8). blocks ≥ 1.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ stride+16(FP), R9
	SHLQ $2, R9
	MOVQ blocks+24(FP), CX
	LEAQ (R9)(R9*2), AX
	VXORPS Y12, Y12, Y12
sumrows:
	LEAQ (SI)(R9*4), BX
	QUADROWS(BX)
	SAVEQUADS
	QUADROWS(SI)
	SUMTERM($0x20, Y0, Y8)
	SUMTERM($0x20, Y1, Y9)
	SUMTERM($0x20, Y2, Y10)
	SUMTERM($0x20, Y3, Y11)
	SUMTERM($0x31, Y0, Y8)
	SUMTERM($0x31, Y1, Y9)
	SUMTERM($0x31, Y2, Y10)
	SUMTERM($0x31, Y3, Y11)
	ADDQ $32, SI
	DECQ CX
	JNZ  sumrows
	VMOVUPS Y12, (DI)
	VZEROUPPER
	RET

// func resizeRowAVX2(dst *float32, n int, r0, r1 *float32, lo, hi *int32, frac *float32, wy float32)
//
// One output row of BilinearResizeInto, eight adjacent outputs per register:
// dst[i] = top + (bot−top)·wy with top = r0[lo[i]] + (r0[hi[i]]−r0[lo[i]])·
// frac[i] and bot the same on r1 — the scalar loop's operations in its order,
// the four samples gathered. n ≥ 8; the last n%8 outputs are one more register
// that ends at the row's end. A gather clears its mask, so each gets a fresh
// one; every index is inside its row.
TEXT ·resizeRowAVX2(SB), NOSPLIT, $0-60
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ r0+16(FP), R8
	MOVQ r1+24(FP), R9
	MOVQ lo+32(FP), R10
	MOVQ hi+40(FP), R11
	MOVQ frac+48(FP), R12
	VBROADCASTSS wy+56(FP), Y15
	XORQ BX, BX
resize8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JLE  resizevec
	LEAQ -8(CX), BX
resizevec:
	VMOVDQU (R10)(BX*4), Y8
	VMOVDQU (R11)(BX*4), Y9
	VMOVUPS (R12)(BX*4), Y10
	VPCMPEQD Y4, Y4, Y4
	VGATHERDPS Y4, (R8)(Y8*4), Y0
	VPCMPEQD Y5, Y5, Y5
	VGATHERDPS Y5, (R8)(Y9*4), Y1
	VPCMPEQD Y6, Y6, Y6
	VGATHERDPS Y6, (R9)(Y8*4), Y2
	VPCMPEQD Y7, Y7, Y7
	VGATHERDPS Y7, (R9)(Y9*4), Y3
	VSUBPS Y0, Y1, Y1
	VMULPS Y10, Y1, Y1
	VADDPS Y1, Y0, Y0
	VSUBPS Y2, Y3, Y3
	VMULPS Y10, Y3, Y3
	VADDPS Y3, Y2, Y2
	VSUBPS Y0, Y2, Y2
	VMULPS Y15, Y2, Y2
	VADDPS Y2, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  resize8
	VZEROUPPER
	RET

// func stride2AVX2(dst, src *float32, n int)
//
// dst[i] = src[2i] for i in [0, n), n a positive multiple of 8: the even
// elements of two loads, put back in order as in the stride-2 depthwise
// kernel. It reads src[0:2n], one element past the last it keeps.
TEXT ·stride2AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
stride2:
	VMOVUPS (SI), Y0
	VSHUFPS $0x88, 32(SI), Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  stride2
	VZEROUPPER
	RET
