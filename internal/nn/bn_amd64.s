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
