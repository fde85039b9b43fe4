//go:build !purego

#include "textflag.h"

// AVX2 kernels under the summation-order contract (DESIGN.md §4.6). The
// eight lanes of a register are eight different output elements; each
// element receives its terms one at a time, in the portable loop's order,
// through a multiply and a separate add — two roundings, as the Go compiler
// emits on amd64. No fused multiply-add appears in this file: it would round
// once and move bits.
//
// VEX operand order below is Go's: OP src2, src1, dst. VMAXPS/VMINPS return
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

// One input vector against both rows' weights: acc0 += w0·x, acc1 += w1·x.
#define PAIRSTEP(x, acc0, acc1) \
	VMULPS Y8, x, Y14      \
	VADDPS acc0, Y14, acc0 \
	VMULPS Y9, x, Y15      \
	VADDPS acc1, Y15, acc1

// func conv1x1PairAVX2(d0, d1 *float32, n int, x *float32, stride int, w0, w1 *float32, c int)
//
// d0[i] = Σ_ch w0[ch]·x[ch·stride+i] and likewise d1 with w1, ch ascending
// from a zero accumulator, for i in [0, n), n ≥ 8. 2 rows × 32 elements of
// accumulators stay in registers across all c channels and are stored once;
// the destination is never read, which is what lets the last n%8 elements be
// computed as part of a whole register that overlaps the one before it.
TEXT ·conv1x1PairAVX2(SB), NOSPLIT, $0-64
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ x+24(FP), DX
	MOVQ stride+32(FP), R8
	SHLQ $2, R8
	MOVQ w0+40(FP), R9
	MOVQ w1+48(FP), R10
	MOVQ c+56(FP), R11

pair32:
	CMPQ CX, $32
	JLT  pair8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ DX, AX
	XORQ BX, BX
pair32ch:
	VBROADCASTSS (R9)(BX*4), Y8
	VBROADCASTSS (R10)(BX*4), Y9
	VMOVUPS (AX), Y10
	VMOVUPS 32(AX), Y11
	VMOVUPS 64(AX), Y12
	VMOVUPS 96(AX), Y13
	PAIRSTEP(Y10, Y0, Y4)
	PAIRSTEP(Y11, Y1, Y5)
	PAIRSTEP(Y12, Y2, Y6)
	PAIRSTEP(Y13, Y3, Y7)
	ADDQ R8, AX
	INCQ BX
	CMPQ BX, R11
	JLT  pair32ch
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, 32(SI)
	VMOVUPS Y6, 64(SI)
	VMOVUPS Y7, 96(SI)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  pair32

pair8:
	CMPQ CX, $8
	JLT  pairtail
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ DX, AX
	XORQ BX, BX
pair8ch:
	VBROADCASTSS (R9)(BX*4), Y8
	VBROADCASTSS (R10)(BX*4), Y9
	VMOVUPS (AX), Y10
	PAIRSTEP(Y10, Y0, Y4)
	ADDQ R8, AX
	INCQ BX
	CMPQ BX, R11
	JLT  pair8ch
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  pair8

pairtail:
	// 0 ≤ CX < 8 elements are left and n ≥ 8: step back to the last eight
	// and compute them as one more register. Its first 8−CX elements were
	// just computed, by the same sum; the destination is only written.
	TESTQ CX, CX
	JZ    pairdone
	LEAQ  -32(DI)(CX*4), DI
	LEAQ  -32(SI)(CX*4), SI
	LEAQ  -32(DX)(CX*4), DX
	MOVQ  $8, CX
	JMP   pair8

pairdone:
	VZEROUPPER
	RET

#define ROWSTEP(x, acc) \
	VMULPS Y8, x, Y14   \
	VADDPS acc, Y14, acc

// func conv1x1RowAVX2(d0 *float32, n int, x *float32, stride int, w0 *float32, c int)
//
// conv1x1PairAVX2 for the last output row of an odd count.
TEXT ·conv1x1RowAVX2(SB), NOSPLIT, $0-48
	MOVQ d0+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ stride+24(FP), R8
	SHLQ $2, R8
	MOVQ w0+32(FP), R9
	MOVQ c+40(FP), R11

row32:
	CMPQ CX, $32
	JLT  row8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ DX, AX
	XORQ BX, BX
row32ch:
	VBROADCASTSS (R9)(BX*4), Y8
	VMOVUPS (AX), Y10
	VMOVUPS 32(AX), Y11
	VMOVUPS 64(AX), Y12
	VMOVUPS 96(AX), Y13
	ROWSTEP(Y10, Y0)
	ROWSTEP(Y11, Y1)
	ROWSTEP(Y12, Y2)
	ROWSTEP(Y13, Y3)
	ADDQ R8, AX
	INCQ BX
	CMPQ BX, R11
	JLT  row32ch
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  row32

row8:
	CMPQ CX, $8
	JLT  rowtail
	VXORPS Y0, Y0, Y0
	MOVQ DX, AX
	XORQ BX, BX
row8ch:
	VBROADCASTSS (R9)(BX*4), Y8
	VMOVUPS (AX), Y10
	ROWSTEP(Y10, Y0)
	ADDQ R8, AX
	INCQ BX
	CMPQ BX, R11
	JLT  row8ch
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  row8

rowtail:
	TESTQ CX, CX
	JZ    rowdone
	LEAQ  -32(DI)(CX*4), DI
	LEAQ  -32(DX)(CX*4), DX
	MOVQ  $8, CX
	JMP   row8

rowdone:
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
