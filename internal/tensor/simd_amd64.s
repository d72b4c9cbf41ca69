//go:build !purego

#include "textflag.h"

// 256-bit AVX bodies of the kernels in simd.go. Only VEX-encoded
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD (and their scalar forms for the
// tails) do arithmetic, never a fused multiply-add, so every lane
// rounds each operation on its own exactly as the Go loop does for one
// element. Go runs with the default MXCSR (round to nearest, no
// flush-to-zero), so subnormals behave as in scalar code too. Every
// routine ends with VZEROUPPER so later SSE code pays no transition
// penalty.

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

// func maskedAxpyAVX(s float64, x, y []float64)
// y[j] = x[j] ≠ 0 ? y[j] + x[j]·s : y[j]. The NEQ_UQ compare is true
// for NaN and false for either zero, and the blend keeps y's own bits
// where it is false, as the skipped scalar step does. Four elements per
// pass, then the 0-3 leftovers one at a time.
TEXT ·maskedAxpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD s+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	VXORPD       Y1, Y1, Y1
	SUBQ         $4, CX
	JL           masktail

mask4:
	VMOVUPD   (SI), Y2
	VCMPPD    $0x04, Y1, Y2, Y3 // x ≠ 0
	VMULPD    Y0, Y2, Y2        // x·s
	VMOVUPD   (DI), Y4
	VADDPD    Y2, Y4, Y2        // y + x·s
	VBLENDVPD Y3, Y2, Y4, Y4    // x ≠ 0 ? y + x·s : y
	VMOVUPD   Y4, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	JGE       mask4

masktail:
	ADDQ $4, CX
	JE   maskdone

mask1:
	VMOVSD    (SI), X2
	VCMPSD    $0x04, X1, X2, X3
	VMULSD    X0, X2, X2
	VMOVSD    (DI), X4
	VADDSD    X2, X4, X2
	VBLENDVPD X3, X2, X4, X4
	VMOVSD    X4, (DI)
	ADDQ      $8, SI
	ADDQ      $8, DI
	DECQ      CX
	JNE       mask1

maskdone:
	VZEROUPPER
	RET

// func adamStepAVX(w, g, m, v []float64, k *AdamCoef)
// Four elements per pass, then the 0-3 leftovers one at a time. The
// AdamCoef fields sit at 8-byte offsets in declaration order.
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
	VDIVPD  Y4, Y9, Y9    // m/C1
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
	VDIVSD  X4, X9, X9
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
