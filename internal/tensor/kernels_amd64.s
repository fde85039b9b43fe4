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
