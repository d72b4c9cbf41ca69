//go:build !purego

#include "textflag.h"

// Assembly bodies of the kernels in simd.go: 256-bit AVX bodies for
// all of them, and 512-bit AVX-512 bodies for the GEMM panel and column
// kernels and the transpose.
// Only VEX- or EVEX-encoded VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD (and
// their scalar forms for the tails) do arithmetic, never a fused
// multiply-add, so every lane rounds each operation on its own exactly
// as the Go loop does for one element. Go runs with the default MXCSR
// (round to nearest, no flush-to-zero), so subnormals behave as in
// scalar code too. Every routine ends with VZEROUPPER so later SSE
// code pays no transition penalty.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	// CPUID.1:ECX bit 27 is OSXSAVE, bit 28 is AVX.
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    noavx
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    noavx
	MOVB   $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	// The highest standard CPUID leaf must reach 7.
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JL     no512
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	// CPUID.1:ECX bit 27 is OSXSAVE, bit 28 is AVX.
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no512
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	// CPUID.(7,0):EBX bit 16 is AVX512F.
	ANDL   $0x10000, BX
	JE     no512
	// XCR0 bits 1 and 2 (XMM, YMM), 5 (opmask), 6 (upper halves of
	// ZMM0-15) and 7 (ZMM16-31): the OS saves all of that state.
	XORL   CX, CX
	XGETBV
	ANDL   $0xe6, AX
	CMPL   AX, $0xe6
	JNE    no512
	MOVB   $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// func gemmPanelAVX(vals []float64, offs []int32, b, c []float64)
// For each list entry e in order, c[j] += vals[e]·b[offs[e]+j]. The
// segment c stays in YMM accumulators across the whole list and is
// loaded and stored once: 32 columns in eight registers per pass, then
// a 16-, 8- and 4-wide pass for the 0-31 leftover columns, then the
// 0-3 last ones one at a time, each pass running the full list.
TEXT ·gemmPanelAVX(SB), NOSPLIT, $0-96
	MOVQ         vals_base+0(FP), SI
	MOVQ         vals_len+8(FP), CX
	MOVQ         offs_base+24(FP), DX
	MOVQ         b_base+48(FP), BX
	MOVQ         c_base+72(FP), DI
	MOVQ         c_len+80(FP), R8
	TESTQ        CX, CX
	JE           paneldone

panel32:
	CMPQ         R8, $32
	JL           panel16
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	VMOVUPD      128(DI), Y4
	VMOVUPD      160(DI), Y5
	VMOVUPD      192(DI), Y6
	VMOVUPD      224(DI), Y7
	XORQ         AX, AX

entry32:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD       0(R10), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R10), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R10), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R10), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R10), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R10), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R10), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R10), Y8, Y9
	VADDPD       Y9, Y7, Y7
	INCQ         AX
	CMPQ         AX, CX
	JL           entry32
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VMOVUPD      Y4, 128(DI)
	VMOVUPD      Y5, 160(DI)
	VMOVUPD      Y6, 192(DI)
	VMOVUPD      Y7, 224(DI)
	ADDQ         $256, DI
	ADDQ         $256, BX
	SUBQ         $32, R8
	JMP          panel32

panel16:
	CMPQ         R8, $16
	JL           panel8
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	XORQ         AX, AX

entry16:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD       0(R10), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R10), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R10), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R10), Y8, Y12
	VADDPD       Y12, Y3, Y3
	INCQ         AX
	CMPQ         AX, CX
	JL           entry16
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, BX
	SUBQ         $16, R8

panel8:
	CMPQ         R8, $8
	JL           panel4
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	XORQ         AX, AX

entry8:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD       0(R10), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R10), Y8, Y10
	VADDPD       Y10, Y1, Y1
	INCQ         AX
	CMPQ         AX, CX
	JL           entry8
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, BX
	SUBQ         $8, R8

panel4:
	CMPQ         R8, $4
	JL           panel1
	VMOVUPD      0(DI), Y0
	XORQ         AX, AX

entry4:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD       0(R10), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         AX
	CMPQ         AX, CX
	JL           entry4
	VMOVUPD      Y0, 0(DI)
	ADDQ         $32, DI
	ADDQ         $32, BX
	SUBQ         $4, R8

panel1:
	TESTQ        R8, R8
	JE           paneldone
	VMOVSD       (DI), X0
	XORQ         AX, AX

entry1:
	MOVLQSX      (DX)(AX*4), R9
	VMOVSD       (SI)(AX*8), X8
	VMULSD       (BX)(R9*8), X8, X9
	VADDSD       X9, X0, X0
	INCQ         AX
	CMPQ         AX, CX
	JL           entry1
	VMOVSD       X0, (DI)
	ADDQ         $8, DI
	ADDQ         $8, BX
	DECQ         R8
	JMP          panel1

paneldone:
	VZEROUPPER
	RET

// func gemmPanelAVX512(vals []float64, offs []int32, b, c []float64)
// gemmPanelAVX with 512-bit registers: 32 columns in four ZMM
// accumulators per pass, then one pass for the 1-31 leftover columns
// with the same four accumulators under opmasks K1-K4, which select
// each vector's columns inside c. Masked-off lanes neither load (so
// nothing past the end of b or c is touched) nor store.
TEXT ·gemmPanelAVX512(SB), NOSPLIT, $0-96
	MOVQ         vals_base+0(FP), SI
	MOVQ         vals_len+8(FP), CX
	MOVQ         offs_base+24(FP), DX
	MOVQ         b_base+48(FP), BX
	MOVQ         c_base+72(FP), DI
	MOVQ         c_len+80(FP), R8
	TESTQ        CX, CX
	JE           zdone

zpanel32:
	CMPQ         R8, $32
	JL           ztail
	VMOVUPD      0(DI), Z0
	VMOVUPD      64(DI), Z1
	VMOVUPD      128(DI), Z2
	VMOVUPD      192(DI), Z3
	XORQ         AX, AX

zentry32:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VBROADCASTSD (SI)(AX*8), Z8
	VMULPD       0(R10), Z8, Z4
	VADDPD       Z4, Z0, Z0
	VMULPD       64(R10), Z8, Z5
	VADDPD       Z5, Z1, Z1
	VMULPD       128(R10), Z8, Z6
	VADDPD       Z6, Z2, Z2
	VMULPD       192(R10), Z8, Z7
	VADDPD       Z7, Z3, Z3
	INCQ         AX
	CMPQ         AX, CX
	JL           zentry32
	VMOVUPD      Z0, 0(DI)
	VMOVUPD      Z1, 64(DI)
	VMOVUPD      Z2, 128(DI)
	VMOVUPD      Z3, 192(DI)
	ADDQ         $256, DI
	ADDQ         $256, BX
	SUBQ         $32, R8
	JMP          zpanel32

ztail:
	TESTQ        R8, R8
	JE           zdone
	// Bit j of (1<<R8)-1 selects column j; each K takes eight bits.
	MOVQ         CX, R12
	MOVQ         R8, CX
	MOVL         $1, R11
	SHLL         CX, R11
	DECL         R11
	MOVQ         R12, CX
	KMOVW        R11, K1
	SHRL         $8, R11
	KMOVW        R11, K2
	SHRL         $8, R11
	KMOVW        R11, K3
	SHRL         $8, R11
	KMOVW        R11, K4
	VMOVUPD.Z    0(DI), K1, Z0
	VMOVUPD.Z    64(DI), K2, Z1
	VMOVUPD.Z    128(DI), K3, Z2
	VMOVUPD.Z    192(DI), K4, Z3
	XORQ         AX, AX

zentrytail:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VBROADCASTSD (SI)(AX*8), Z8
	VMULPD.Z     0(R10), Z8, K1, Z4
	VADDPD       Z4, Z0, Z0
	VMULPD.Z     64(R10), Z8, K2, Z5
	VADDPD       Z5, Z1, Z1
	VMULPD.Z     128(R10), Z8, K3, Z6
	VADDPD       Z6, Z2, Z2
	VMULPD.Z     192(R10), Z8, K4, Z7
	VADDPD       Z7, Z3, Z3
	INCQ         AX
	CMPQ         AX, CX
	JL           zentrytail
	VMOVUPD      Z0, K1, 0(DI)
	VMOVUPD      Z1, K2, 64(DI)
	VMOVUPD      Z2, K3, 128(DI)
	VMOVUPD      Z3, K4, 192(DI)

zdone:
	VZEROUPPER
	RET

// func gemmQuadAVX512(vals []float64, ldv int, offs []int32, b, c []float64, ldc int)
// Four 32-column dst rows whose lists share offs: row q adds
// vals[q·ldv+e]·b[offs[e]+j] into c[q·ldc+j]. The 16 accumulators
// (Z0-Z15, four per row) stay in registers across the list, and each
// entry loads its four b vectors (Z16-Z19) once for all four rows.
// Each row's products are added in list order, as gemmPanelAVX512
// adds them.
TEXT ·gemmQuadAVX512(SB), NOSPLIT, $0-112
	MOVQ         vals_base+0(FP), SI
	MOVQ         ldv+24(FP), R11
	MOVQ         offs_base+32(FP), DX
	MOVQ         offs_len+40(FP), CX
	MOVQ         b_base+56(FP), BX
	MOVQ         c_base+80(FP), DI
	MOVQ         ldc+104(FP), R8
	TESTQ        CX, CX
	JE           qdone
	SHLQ         $3, R11
	SHLQ         $3, R8
	LEAQ         (SI)(R11*1), R12 // row 1's values
	LEAQ         (SI)(R11*2), R13 // row 2's values
	LEAQ         (R12)(R11*2), R11 // row 3's values
	LEAQ         (DI)(R8*1), R9
	LEAQ         (DI)(R8*2), R10
	VMOVUPD      0(DI), Z0
	VMOVUPD      64(DI), Z1
	VMOVUPD      128(DI), Z2
	VMOVUPD      192(DI), Z3
	VMOVUPD      0(R9), Z4
	VMOVUPD      64(R9), Z5
	VMOVUPD      128(R9), Z6
	VMOVUPD      192(R9), Z7
	VMOVUPD      0(R10), Z8
	VMOVUPD      64(R10), Z9
	VMOVUPD      128(R10), Z10
	VMOVUPD      192(R10), Z11
	LEAQ         (R9)(R8*2), R9
	VMOVUPD      0(R9), Z12
	VMOVUPD      64(R9), Z13
	VMOVUPD      128(R9), Z14
	VMOVUPD      192(R9), Z15
	XORQ         AX, AX

qentry:
	MOVLQSX      (DX)(AX*4), R9
	LEAQ         (BX)(R9*8), R10
	VMOVUPD      0(R10), Z16
	VMOVUPD      64(R10), Z17
	VMOVUPD      128(R10), Z18
	VMOVUPD      192(R10), Z19
	VBROADCASTSD (SI)(AX*8), Z20
	VMULPD       Z16, Z20, Z24
	VADDPD       Z24, Z0, Z0
	VMULPD       Z17, Z20, Z25
	VADDPD       Z25, Z1, Z1
	VMULPD       Z18, Z20, Z26
	VADDPD       Z26, Z2, Z2
	VMULPD       Z19, Z20, Z27
	VADDPD       Z27, Z3, Z3
	VBROADCASTSD (R12)(AX*8), Z21
	VMULPD       Z16, Z21, Z28
	VADDPD       Z28, Z4, Z4
	VMULPD       Z17, Z21, Z29
	VADDPD       Z29, Z5, Z5
	VMULPD       Z18, Z21, Z30
	VADDPD       Z30, Z6, Z6
	VMULPD       Z19, Z21, Z31
	VADDPD       Z31, Z7, Z7
	VBROADCASTSD (R13)(AX*8), Z22
	VMULPD       Z16, Z22, Z24
	VADDPD       Z24, Z8, Z8
	VMULPD       Z17, Z22, Z25
	VADDPD       Z25, Z9, Z9
	VMULPD       Z18, Z22, Z26
	VADDPD       Z26, Z10, Z10
	VMULPD       Z19, Z22, Z27
	VADDPD       Z27, Z11, Z11
	VBROADCASTSD (R11)(AX*8), Z23
	VMULPD       Z16, Z23, Z28
	VADDPD       Z28, Z12, Z12
	VMULPD       Z17, Z23, Z29
	VADDPD       Z29, Z13, Z13
	VMULPD       Z18, Z23, Z30
	VADDPD       Z30, Z14, Z14
	VMULPD       Z19, Z23, Z31
	VADDPD       Z31, Z15, Z15
	INCQ         AX
	CMPQ         AX, CX
	JL           qentry
	LEAQ         (DI)(R8*1), R9
	LEAQ         (DI)(R8*2), R10
	VMOVUPD      Z0, 0(DI)
	VMOVUPD      Z1, 64(DI)
	VMOVUPD      Z2, 128(DI)
	VMOVUPD      Z3, 192(DI)
	VMOVUPD      Z4, 0(R9)
	VMOVUPD      Z5, 64(R9)
	VMOVUPD      Z6, 128(R9)
	VMOVUPD      Z7, 192(R9)
	VMOVUPD      Z8, 0(R10)
	VMOVUPD      Z9, 64(R10)
	VMOVUPD      Z10, 128(R10)
	VMOVUPD      Z11, 192(R10)
	LEAQ         (R9)(R8*2), R9
	VMOVUPD      Z12, 0(R9)
	VMOVUPD      Z13, 64(R9)
	VMOVUPD      Z14, 128(R9)
	VMOVUPD      Z15, 192(R9)

qdone:
	VZEROUPPER
	RET

// func gemvColumnsAVX(x []float64, ldx int, s, y []float64)
// For each k in ascending order, y[j] = x[k·ldx+j] ≠ 0 ?
// y[j] + x[k·ldx+j]·s[k] : y[j]. The NEQ_UQ compare is true for NaN and
// false for either zero, and the blend keeps y's own bits where it is
// false, as the skipped scalar step does. The segment of y stays in YMM
// accumulators across all of k and is loaded and stored once: 32
// elements in eight registers per pass, then a 16-, 8- and 4-wide pass
// for the 0-31 leftover ones, then the 0-3 last ones one at a time,
// each pass walking every k.
TEXT ·gemvColumnsAVX(SB), NOSPLIT, $0-80
	MOVQ         x_base+0(FP), SI
	MOVQ         ldx+24(FP), R9
	MOVQ         s_base+32(FP), DX
	MOVQ         s_len+40(FP), CX
	MOVQ         y_base+56(FP), DI
	MOVQ         y_len+64(FP), R8
	SHLQ         $3, R9
	VXORPD       Y14, Y14, Y14
	TESTQ        CX, CX
	JE           gemvdone

gemv32:
	CMPQ         R8, $32
	JL           gemv16
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	VMOVUPD      128(DI), Y4
	VMOVUPD      160(DI), Y5
	VMOVUPD      192(DI), Y6
	VMOVUPD      224(DI), Y7
	MOVQ         SI, AX
	XORQ         BX, BX

gemvk32:
	VBROADCASTSD (DX)(BX*8), Y15
	VMOVUPD      0(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9 // x ≠ 0
	VMULPD       Y15, Y8, Y8        // x·s
	VADDPD       Y8, Y0, Y8         // y + x·s
	VBLENDVPD    Y9, Y8, Y0, Y0     // x ≠ 0 ? y + x·s : y
	VMOVUPD      32(AX), Y10
	VCMPPD       $0x04, Y14, Y10, Y11
	VMULPD       Y15, Y10, Y10
	VADDPD       Y10, Y1, Y10
	VBLENDVPD    Y11, Y10, Y1, Y1
	VMOVUPD      64(AX), Y12
	VCMPPD       $0x04, Y14, Y12, Y13
	VMULPD       Y15, Y12, Y12
	VADDPD       Y12, Y2, Y12
	VBLENDVPD    Y13, Y12, Y2, Y2
	VMOVUPD      96(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9
	VMULPD       Y15, Y8, Y8
	VADDPD       Y8, Y3, Y8
	VBLENDVPD    Y9, Y8, Y3, Y3
	VMOVUPD      128(AX), Y10
	VCMPPD       $0x04, Y14, Y10, Y11
	VMULPD       Y15, Y10, Y10
	VADDPD       Y10, Y4, Y10
	VBLENDVPD    Y11, Y10, Y4, Y4
	VMOVUPD      160(AX), Y12
	VCMPPD       $0x04, Y14, Y12, Y13
	VMULPD       Y15, Y12, Y12
	VADDPD       Y12, Y5, Y12
	VBLENDVPD    Y13, Y12, Y5, Y5
	VMOVUPD      192(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9
	VMULPD       Y15, Y8, Y8
	VADDPD       Y8, Y6, Y8
	VBLENDVPD    Y9, Y8, Y6, Y6
	VMOVUPD      224(AX), Y10
	VCMPPD       $0x04, Y14, Y10, Y11
	VMULPD       Y15, Y10, Y10
	VADDPD       Y10, Y7, Y10
	VBLENDVPD    Y11, Y10, Y7, Y7
	ADDQ         R9, AX
	INCQ         BX
	CMPQ         BX, CX
	JL           gemvk32
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VMOVUPD      Y4, 128(DI)
	VMOVUPD      Y5, 160(DI)
	VMOVUPD      Y6, 192(DI)
	VMOVUPD      Y7, 224(DI)
	ADDQ         $256, DI
	ADDQ         $256, SI
	SUBQ         $32, R8
	JMP          gemv32

gemv16:
	CMPQ         R8, $16
	JL           gemv8
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	MOVQ         SI, AX
	XORQ         BX, BX

gemvk16:
	VBROADCASTSD (DX)(BX*8), Y15
	VMOVUPD      0(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9
	VMULPD       Y15, Y8, Y8
	VADDPD       Y8, Y0, Y8
	VBLENDVPD    Y9, Y8, Y0, Y0
	VMOVUPD      32(AX), Y10
	VCMPPD       $0x04, Y14, Y10, Y11
	VMULPD       Y15, Y10, Y10
	VADDPD       Y10, Y1, Y10
	VBLENDVPD    Y11, Y10, Y1, Y1
	VMOVUPD      64(AX), Y12
	VCMPPD       $0x04, Y14, Y12, Y13
	VMULPD       Y15, Y12, Y12
	VADDPD       Y12, Y2, Y12
	VBLENDVPD    Y13, Y12, Y2, Y2
	VMOVUPD      96(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9
	VMULPD       Y15, Y8, Y8
	VADDPD       Y8, Y3, Y8
	VBLENDVPD    Y9, Y8, Y3, Y3
	ADDQ         R9, AX
	INCQ         BX
	CMPQ         BX, CX
	JL           gemvk16
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $16, R8

gemv8:
	CMPQ         R8, $8
	JL           gemv4
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	MOVQ         SI, AX
	XORQ         BX, BX

gemvk8:
	VBROADCASTSD (DX)(BX*8), Y15
	VMOVUPD      0(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9
	VMULPD       Y15, Y8, Y8
	VADDPD       Y8, Y0, Y8
	VBLENDVPD    Y9, Y8, Y0, Y0
	VMOVUPD      32(AX), Y10
	VCMPPD       $0x04, Y14, Y10, Y11
	VMULPD       Y15, Y10, Y10
	VADDPD       Y10, Y1, Y10
	VBLENDVPD    Y11, Y10, Y1, Y1
	ADDQ         R9, AX
	INCQ         BX
	CMPQ         BX, CX
	JL           gemvk8
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $8, R8

gemv4:
	CMPQ         R8, $4
	JL           gemv1
	VMOVUPD      0(DI), Y0
	MOVQ         SI, AX
	XORQ         BX, BX

gemvk4:
	VBROADCASTSD (DX)(BX*8), Y15
	VMOVUPD      0(AX), Y8
	VCMPPD       $0x04, Y14, Y8, Y9
	VMULPD       Y15, Y8, Y8
	VADDPD       Y8, Y0, Y8
	VBLENDVPD    Y9, Y8, Y0, Y0
	ADDQ         R9, AX
	INCQ         BX
	CMPQ         BX, CX
	JL           gemvk4
	VMOVUPD      Y0, 0(DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $4, R8

gemv1:
	TESTQ        R8, R8
	JE           gemvdone
	VMOVSD       (DI), X0
	MOVQ         SI, AX
	XORQ         BX, BX

gemvk1:
	VMOVSD       (AX), X8
	VCMPSD       $0x04, X14, X8, X9
	VMULSD       (DX)(BX*8), X8, X8
	VADDSD       X8, X0, X8
	VBLENDVPD    X9, X8, X0, X0
	ADDQ         R9, AX
	INCQ         BX
	CMPQ         BX, CX
	JL           gemvk1
	VMOVSD       X0, (DI)
	ADDQ         $8, DI
	ADDQ         $8, SI
	DECQ         R8
	JMP          gemv1

gemvdone:
	VZEROUPPER
	RET

// func addToAVX(y, x []float64)
// y[j] += x[j]: sixteen elements per pass, then four, then the 0-3
// leftovers one at a time.
TEXT ·addToAVX(SB), NOSPLIT, $0-48
	MOVQ    y_base+0(FP), DI
	MOVQ    y_len+8(FP), CX
	MOVQ    x_base+24(FP), SI
	SUBQ    $16, CX
	JL      add4

add16:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  0(SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JGE     add16

add4:
	ADDQ    $12, CX
	JL      addtail

add4loop:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     add4loop

addtail:
	ADDQ $4, CX
	JE   adddone

add1:
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNE    add1

adddone:
	VZEROUPPER
	RET

// func transposeAVX(dst []float64, ldd int, src []float64, lds, rows, cols int)
// dst[c·ldd+r] = src[r·lds+c] for a rows×cols block whose sides are
// multiples of 4, one 4×4 tile at a time: four dst rows (source
// columns) across all of r, then the next four, so that dst is written
// sequentially and the strided side is the loads, which run ahead of
// the stores. Each tile loads the two-element halves of its rows so
// that one YMM register holds rows r and r+2 and another rows r+1 and
// r+3; one unpack then gives each dst row's four elements.
TEXT ·transposeAVX(SB), NOSPLIT, $0-80
	MOVQ        dst_base+0(FP), DI
	MOVQ        ldd+24(FP), R8
	MOVQ        src_base+32(FP), SI
	MOVQ        lds+56(FP), R9
	MOVQ        rows+64(FP), R10
	MOVQ        cols+72(FP), R11
	TESTQ       R10, R10
	JE          tdone
	TESTQ       R11, R11
	JE          tdone
	SHLQ        $3, R8
	SHLQ        $3, R9
	LEAQ        (R8)(R8*2), R13 // three dst rows
	LEAQ        (R9)(R9*2), R12 // three src rows

tcols:
	MOVQ        SI, AX
	MOVQ        DI, BX
	MOVQ        R10, CX

ttile:
	VMOVUPD     (AX), X0
	VINSERTF128 $1, (AX)(R9*2), Y0, Y0      // s[r][c:c+2] | s[r+2][c:c+2]
	VMOVUPD     (AX)(R9*1), X1
	VINSERTF128 $1, (AX)(R12*1), Y1, Y1     // s[r+1][c:c+2] | s[r+3][c:c+2]
	VMOVUPD     16(AX), X2
	VINSERTF128 $1, 16(AX)(R9*2), Y2, Y2    // s[r][c+2:c+4] | s[r+2][c+2:c+4]
	VMOVUPD     16(AX)(R9*1), X3
	VINSERTF128 $1, 16(AX)(R12*1), Y3, Y3   // s[r+1][c+2:c+4] | s[r+3][c+2:c+4]
	VUNPCKLPD   Y1, Y0, Y4                  // d[c][r:r+4]
	VUNPCKHPD   Y1, Y0, Y5                  // d[c+1][r:r+4]
	VUNPCKLPD   Y3, Y2, Y6                  // d[c+2][r:r+4]
	VUNPCKHPD   Y3, Y2, Y7                  // d[c+3][r:r+4]
	VMOVUPD     Y4, (BX)
	VMOVUPD     Y5, (BX)(R8*1)
	VMOVUPD     Y6, (BX)(R8*2)
	VMOVUPD     Y7, (BX)(R13*1)
	LEAQ        (AX)(R9*4), AX
	ADDQ        $32, BX
	SUBQ        $4, CX
	JNE         ttile
	ADDQ        $32, SI
	LEAQ        (DI)(R8*4), DI
	SUBQ        $4, R11
	JNE         tcols

tdone:
	VZEROUPPER
	RET

// func transposeAVX512(dst []float64, ldd int, src []float64, lds, rows, cols int)
// transposeAVX with 8×8 tiles in ZMM registers, for sides that are
// multiples of 8, in the same order. Rows r..r+7 of a tile load whole
// into Z0-Z7; unpacking pairs of rows interleaves their even and odd
// columns, and two rounds of 128-bit lane shuffles (VSHUFF64X2, lanes
// 0 and 2 with 0x88, 1 and 3 with 0xdd) gather each column's eight
// elements into one register.
TEXT ·transposeAVX512(SB), NOSPLIT, $0-80
	MOVQ       dst_base+0(FP), DI
	MOVQ       ldd+24(FP), R8
	MOVQ       src_base+32(FP), SI
	MOVQ       lds+56(FP), R9
	MOVQ       rows+64(FP), R10
	MOVQ       cols+72(FP), R11
	TESTQ      R10, R10
	JE         ztdone
	TESTQ      R11, R11
	JE         ztdone
	SHLQ       $3, R8
	SHLQ       $3, R9
	LEAQ       (R8)(R8*2), R13 // three dst rows
	LEAQ       (R9)(R9*2), R12 // three src rows

ztcols:
	MOVQ       SI, AX
	MOVQ       DI, BX
	MOVQ       R10, CX

zttile:
	LEAQ       (AX)(R9*4), R14
	VMOVUPD    (AX), Z0
	VMOVUPD    (AX)(R9*1), Z1
	VMOVUPD    (AX)(R9*2), Z2
	VMOVUPD    (AX)(R12*1), Z3
	VMOVUPD    (R14), Z4
	VMOVUPD    (R14)(R9*1), Z5
	VMOVUPD    (R14)(R9*2), Z6
	VMOVUPD    (R14)(R12*1), Z7
	// Rows q and q+1 → columns 0,2,4,6 (low) and 1,3,5,7 (high) of both.
	VUNPCKLPD  Z1, Z0, Z8
	VUNPCKHPD  Z1, Z0, Z9
	VUNPCKLPD  Z3, Z2, Z10
	VUNPCKHPD  Z3, Z2, Z11
	VUNPCKLPD  Z5, Z4, Z12
	VUNPCKHPD  Z5, Z4, Z13
	VUNPCKLPD  Z7, Z6, Z14
	VUNPCKHPD  Z7, Z6, Z15
	// Rows q..q+3 → columns {0,4}, {2,6}, {1,5}, {3,7}.
	VSHUFF64X2 $0x88, Z10, Z8, Z0
	VSHUFF64X2 $0xdd, Z10, Z8, Z1
	VSHUFF64X2 $0x88, Z11, Z9, Z2
	VSHUFF64X2 $0xdd, Z11, Z9, Z3
	VSHUFF64X2 $0x88, Z14, Z12, Z4
	VSHUFF64X2 $0xdd, Z14, Z12, Z5
	VSHUFF64X2 $0x88, Z15, Z13, Z6
	VSHUFF64X2 $0xdd, Z15, Z13, Z7
	// All eight rows → one column each.
	VSHUFF64X2 $0x88, Z4, Z0, Z8  // d[c][r:r+8]
	VSHUFF64X2 $0x88, Z6, Z2, Z9  // d[c+1]
	VSHUFF64X2 $0x88, Z5, Z1, Z10 // d[c+2]
	VSHUFF64X2 $0x88, Z7, Z3, Z11 // d[c+3]
	VSHUFF64X2 $0xdd, Z4, Z0, Z12 // d[c+4]
	VSHUFF64X2 $0xdd, Z6, Z2, Z13 // d[c+5]
	VSHUFF64X2 $0xdd, Z5, Z1, Z14 // d[c+6]
	VSHUFF64X2 $0xdd, Z7, Z3, Z15 // d[c+7]
	LEAQ       (BX)(R8*4), DX
	VMOVUPD    Z8, (BX)
	VMOVUPD    Z9, (BX)(R8*1)
	VMOVUPD    Z10, (BX)(R8*2)
	VMOVUPD    Z11, (BX)(R13*1)
	VMOVUPD    Z12, (DX)
	VMOVUPD    Z13, (DX)(R8*1)
	VMOVUPD    Z14, (DX)(R8*2)
	VMOVUPD    Z15, (DX)(R13*1)
	LEAQ       (AX)(R9*8), AX
	ADDQ       $64, BX
	SUBQ       $8, CX
	JNE        zttile
	ADDQ       $64, SI
	LEAQ       (DI)(R8*8), DI
	SUBQ       $8, R11
	JNE        ztcols

ztdone:
	VZEROUPPER
	RET

// func adamStepAVX(w, g, m, v []float64, k *AdamCoef)
// Four elements per pass, then the 0-3 leftovers one at a time. The
// AdamCoef fields sit at 8-byte offsets in declaration order. R11 is
// zero when C1 is exactly 1.0; then m/C1 is m and the divide is
// skipped.
TEXT ·adamStepAVX(SB), NOSPLIT, $0-104
	MOVQ         k+96(FP), R8
	VBROADCASTSD 0(R8), Y0  // B1
	VBROADCASTSD 8(R8), Y1  // OneMinusB1
	VBROADCASTSD 16(R8), Y2 // B2
	VBROADCASTSD 24(R8), Y3 // OneMinusB2
	VBROADCASTSD 32(R8), Y4 // C1
	VBROADCASTSD 40(R8), Y5 // C2
	VBROADCASTSD 48(R8), Y6 // LR
	VBROADCASTSD 56(R8), Y7 // Eps
	MOVQ         32(R8), R11
	MOVQ         $0x3ff0000000000000, R12 // 1.0
	XORQ         R12, R11
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R9
	MOVQ         v_base+72(FP), R10
	SUBQ         $4, CX
	JL           adamtail

adam4:
	VMOVUPD (SI), Y8
	VMULPD  (R9), Y0, Y9  // B1·m
	VMULPD  Y8, Y1, Y10   // OneMinusB1·g
	VADDPD  Y10, Y9, Y9   // m
	VMOVUPD Y9, (R9)
	VMULPD  (R10), Y2, Y11 // B2·v
	VMULPD  Y8, Y3, Y12   // OneMinusB2·g
	VMULPD  Y8, Y12, Y12  // (OneMinusB2·g)·g
	VADDPD  Y12, Y11, Y11 // v
	VMOVUPD Y11, (R10)
	VDIVPD  Y5, Y11, Y11  // v/C2
	VSQRTPD Y11, Y11
	VADDPD  Y7, Y11, Y11  // √(v/C2) + Eps
	TESTQ   R11, R11
	JE      adam4unbiased
	VDIVPD  Y4, Y9, Y9    // m/C1

adam4unbiased:
	VMULPD  Y9, Y6, Y9    // LR·(m/C1)
	VDIVPD  Y11, Y9, Y9
	VMOVUPD (DI), Y10
	VSUBPD  Y9, Y10, Y10
	VMOVUPD Y10, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     adam4

adamtail:
	ADDQ $4, CX
	JE   adamdone

adam1:
	VMOVSD  (SI), X8
	VMULSD  (R9), X0, X9
	VMULSD  X8, X1, X10
	VADDSD  X10, X9, X9
	VMOVSD  X9, (R9)
	VMULSD  (R10), X2, X11
	VMULSD  X8, X3, X12
	VMULSD  X8, X12, X12
	VADDSD  X12, X11, X11
	VMOVSD  X11, (R10)
	VDIVSD  X5, X11, X11
	VSQRTSD X11, X11, X11
	VADDSD  X7, X11, X11
	TESTQ   R11, R11
	JE      adam1unbiased
	VDIVSD  X4, X9, X9

adam1unbiased:
	VMULSD  X9, X6, X9
	VDIVSD  X11, X9, X9
	VMOVSD  (DI), X10
	VSUBSD  X9, X10, X10
	VMOVSD  X10, (DI)
	ADDQ    $8, SI
	ADDQ    $8, R9
	ADDQ    $8, R10
	ADDQ    $8, DI
	DECQ    CX
	JNE     adam1

adamdone:
	VZEROUPPER
	RET

// func reluAVX(x []float64)
// x = max(x, +0). VMAXPD returns its second source unless the first is
// strictly greater, so with x first and +0 second, NaN and −0 give +0.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ   x_base+0(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	SUBQ   $4, CX
	JL     relutail

relu4:
	VMOVUPD (DI), Y1
	VMAXPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     relu4

relutail:
	ADDQ $4, CX
	JE   reludone

relu1:
	VMOVSD (DI), X1
	VMAXSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNE    relu1

reludone:
	VZEROUPPER
	RET

// func reluGradAVX(d, act []float64)
// d = act > 0 ? d : d·0. The GT_OQ compare is false for NaN, and the
// blend keeps the rounded product d·0, so signed zeros and NaN match
// the scalar multiply.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-48
	MOVQ   d_base+0(FP), DI
	MOVQ   d_len+8(FP), CX
	MOVQ   act_base+24(FP), SI
	VXORPD Y0, Y0, Y0
	SUBQ   $4, CX
	JL     gradtail

grad4:
	VMOVUPD   (SI), Y1
	VCMPPD    $0x1e, Y0, Y1, Y1
	VMOVUPD   (DI), Y2
	VMULPD    Y0, Y2, Y3
	VBLENDVPD Y1, Y2, Y3, Y2
	VMOVUPD   Y2, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	JGE       grad4

gradtail:
	ADDQ $4, CX
	JE   graddone

grad1:
	VMOVSD    (SI), X1
	VCMPSD    $0x1e, X0, X1, X1
	VMOVSD    (DI), X2
	VMULSD    X0, X2, X3
	VBLENDVPD X1, X2, X3, X2
	VMOVSD    X2, (DI)
	ADDQ      $8, SI
	ADDQ      $8, DI
	DECQ      CX
	JNE       grad1

graddone:
	VZEROUPPER
	RET
