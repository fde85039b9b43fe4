//go:build !purego

#include "textflag.h"

DATA three<>+0(SB)/4, $0x40400000
GLOBL three<>(SB), RODATA|NOPTR, $4
DATA six<>+0(SB)/4, $0x40c00000
GLOBL six<>(SB), RODATA|NOPTR, $4

// func bnApplyAVX2(row *float32, n int, mean, invStd, gamma, beta float32, hswish bool)
//
// BatchNormInPlace's apply pass over row[0:n], n a positive multiple of 8,
// eight elements per register and operation for operation (DESIGN.md §4.6):
//
//	v = (v − mean) · invStd · gamma + beta        four roundings, no FMA
//	v = v · relu6(v + 3) / 6                      when hswish; a true divide
//
// VEX operand order is Go's: OP src2, src1, dst. relu6's two branches are
// `t < 0 → 0` = VMAXPS t, 0 (0 > t ? 0 : t) and `t > 6 → 6` = VMINPS t, 6
// (6 < t ? 6 : t): both return t when it is NaN and keep −0, as the Go does.
TEXT ·bnApplyAVX2(SB), NOSPLIT, $0-33
	MOVQ row+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS mean+16(FP), Y15
	VBROADCASTSS invStd+20(FP), Y14
	VBROADCASTSS gamma+24(FP), Y13
	VBROADCASTSS beta+28(FP), Y12
	CMPB hswish+32(FP), $0
	JNE  hs
affine8:
	VMOVUPS (DI), Y0
	VSUBPS Y15, Y0, Y0
	VMULPS Y14, Y0, Y0
	VMULPS Y13, Y0, Y0
	VADDPS Y12, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  affine8
	VZEROUPPER
	RET
hs:
	VBROADCASTSS three<>(SB), Y11
	VBROADCASTSS six<>(SB), Y10
	VXORPS Y9, Y9, Y9
hs8:
	VMOVUPS (DI), Y0
	VSUBPS Y15, Y0, Y0
	VMULPS Y14, Y0, Y0
	VMULPS Y13, Y0, Y0
	VADDPS Y12, Y0, Y0
	VADDPS Y11, Y0, Y1
	VMAXPS Y1, Y9, Y1
	VMINPS Y1, Y10, Y1
	VMULPS Y1, Y0, Y0
	VDIVPS Y10, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  hs8
	VZEROUPPER
	RET

// The statistics kernels put channels in the lanes. A channel's sum is one
// chain — image by image, then along the plane, every element added in order
// (DESIGN.md §4.6) — so the parallelism is across channels: a float64
// accumulator register holds the running sums of four adjacent channels, and
// up to four such groups (sixteen channels) are in flight so that the add
// chains overlap. The planes are channel-major, so each step transposes an
// 8-element × 4-channel block in registers (unpack pairs, then quads): row j
// of the result is element j of the four channels in its low half and element
// j+4 in its high half. The rows go through a stack slot so that the widening
// to float64 reads 128-bit halves from memory, in element order 0…7.
//
// Shared register use: R8–R11 the four groups' first channel, R12 the plane
// pitch in bytes, R13 three times it, CX blocks left, DX groups, AX the
// group's stack slot, BX the means (variance only), Y0–Y3 the accumulators.

// Y4–Y7 = elements 0|4, 1|5, 2|6, 3|7 of the four channels at base.
#define TRANSPOSE(base) \
	VMOVUPS (base), Y4         \
	VMOVUPS (base)(R12*1), Y5  \
	VMOVUPS (base)(R12*2), Y6  \
	VMOVUPS (base)(R13*1), Y7  \
	VUNPCKLPS Y5, Y4, Y8       \
	VUNPCKHPS Y5, Y4, Y9       \
	VUNPCKLPS Y7, Y6, Y10      \
	VUNPCKHPS Y7, Y6, Y11      \
	VUNPCKLPD Y10, Y8, Y4      \
	VUNPCKHPD Y10, Y8, Y5      \
	VUNPCKLPD Y11, Y9, Y6      \
	VUNPCKHPD Y11, Y9, Y7

#define SPILL(slot) \
	VMOVUPS Y4, slot+0(AX)  \
	VMOVUPS Y5, slot+32(AX) \
	VMOVUPS Y6, slot+64(AX) \
	VMOVUPS Y7, slot+96(AX)

// acc += float64(element) for the element whose four channels sit at off.
#define ADDELEM(off, acc) \
	VCVTPS2PD off(AX), Y12 \
	VADDPD Y12, acc, acc

#define SUMGROUP(base, slot, acc) \
	TRANSPOSE(base)        \
	SPILL(slot)            \
	ADDELEM(slot+0, acc)   \
	ADDELEM(slot+32, acc)  \
	ADDELEM(slot+64, acc)  \
	ADDELEM(slot+96, acc)  \
	ADDELEM(slot+16, acc)  \
	ADDELEM(slot+48, acc)  \
	ADDELEM(slot+80, acc)  \
	ADDELEM(slot+112, acc) \
	ADDQ $32, base

// func bnSumsAVX2(sums *[16]float64, rows *[4]*float32, stride, blocks, groups int)
//
// sums[4g+j] += Σ float64(rows[g][j·stride+i]) over i in [0, 8·blocks), i
// ascending, for g in [0, groups), 1 ≤ groups ≤ 4, blocks ≥ 1.
TEXT ·bnSumsAVX2(SB), NOSPLIT, $512-40
	MOVQ sums+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	MOVQ blocks+24(FP), CX
	MOVQ groups+32(FP), DX
	MOVQ (SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SP, AX
sumblock:
	SUMGROUP(R8, 0, Y0)
	CMPQ DX, $2
	JLT  sumnext
	SUMGROUP(R9, 128, Y1)
	CMPQ DX, $3
	JLT  sumnext
	SUMGROUP(R10, 256, Y2)
	CMPQ DX, $4
	JLT  sumnext
	SUMGROUP(R11, 384, Y3)
sumnext:
	DECQ CX
	JNZ  sumblock
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// d = float64(element − mean), the subtraction in float32; acc += d·d.
#define ADDSQUARE(off, acc) \
	VCVTPS2PD off(AX), Y12 \
	VMULPD Y12, Y12, Y12   \
	VADDPD Y12, acc, acc

#define VARGROUP(base, slot, means, acc) \
	TRANSPOSE(base)           \
	VSUBPS means(BX), Y4, Y4  \
	VSUBPS means(BX), Y5, Y5  \
	VSUBPS means(BX), Y6, Y6  \
	VSUBPS means(BX), Y7, Y7  \
	SPILL(slot)               \
	ADDSQUARE(slot+0, acc)    \
	ADDSQUARE(slot+32, acc)   \
	ADDSQUARE(slot+64, acc)   \
	ADDSQUARE(slot+96, acc)   \
	ADDSQUARE(slot+16, acc)   \
	ADDSQUARE(slot+48, acc)   \
	ADDSQUARE(slot+80, acc)   \
	ADDSQUARE(slot+112, acc)  \
	ADDQ $32, base

// func bnSquaresAVX2(sums *[16]float64, rows *[4]*float32, stride, blocks, groups int, means *[4][8]float32)
//
// bnSumsAVX2 over the squared deviations: sums[4g+j] += d·d with d =
// float64(x − means[g][j]), the difference rounded to float32 before it is
// widened, the square and the sum in float64. means[g] holds the group's four
// means twice over, one copy per half of a transposed row.
TEXT ·bnSquaresAVX2(SB), NOSPLIT, $512-48
	MOVQ sums+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	MOVQ blocks+24(FP), CX
	MOVQ groups+32(FP), DX
	MOVQ means+40(FP), BX
	MOVQ (SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SP, AX
varblock:
	VARGROUP(R8, 0, 0, Y0)
	CMPQ DX, $2
	JLT  varnext
	VARGROUP(R9, 128, 32, Y1)
	CMPQ DX, $3
	JLT  varnext
	VARGROUP(R10, 256, 64, Y2)
	CMPQ DX, $4
	JLT  varnext
	VARGROUP(R11, 384, 96, Y3)
varnext:
	DECQ CX
	JNZ  varblock
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func scaleAVX2(row *float32, n int, gate float32)
//
// row[i] *= gate over [0, n), n a positive multiple of 8.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ row+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS gate+16(FP), Y15
scale8:
	VMULPS (DI), Y15, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  scale8
	VZEROUPPER
	RET
