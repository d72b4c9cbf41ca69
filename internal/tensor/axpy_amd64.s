//go:build !purego

#include "textflag.h"

// The GEMM j-loop primitives: four elements per pass in two packed
// SSE2 registers, then the 0-3 leftover elements one at a time.
// Every lane does exactly what the scalar loop does for one element: one
// MULPD lane is one rounded MULSD and one ADDPD lane is one rounded
// ADDSD, with no fused multiply-add, so the results are bit-identical to
// the Go loops in axpy_generic.go. SSE2 is part of the amd64 baseline,
// so there is no CPU feature check.

// func axpy2(a0, a1 float64, x0, x1, y []float64)
TEXT ·axpy2(SB), NOSPLIT, $0-88
	MOVSD    a0+0(FP), X0
	UNPCKLPD X0, X0
	MOVSD    a1+8(FP), X1
	UNPCKLPD X1, X1
	MOVQ     x0_base+16(FP), SI
	MOVQ     x1_base+40(FP), DX
	MOVQ     y_base+64(FP), DI
	MOVQ     y_len+72(FP), CX
	SUBQ     $4, CX
	JL       tail2

loop2x4:
	MOVUPD (DI), X2
	MOVUPD 16(DI), X3
	MOVUPD (SI), X4
	MOVUPD 16(SI), X5
	MULPD  X0, X4
	MULPD  X0, X5
	ADDPD  X4, X2
	ADDPD  X5, X3
	MOVUPD (DX), X6
	MOVUPD 16(DX), X7
	MULPD  X1, X6
	MULPD  X1, X7
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	SUBQ   $4, CX
	JGE    loop2x4

tail2:
	ADDQ $4, CX
	JE   done2

loop2x1:
	MOVSD (DI), X2
	MOVSD (SI), X4
	MULSD X0, X4
	ADDSD X4, X2
	MOVSD (DX), X6
	MULSD X1, X6
	ADDSD X6, X2
	MOVSD X2, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DX
	ADDQ  $8, DI
	DECQ  CX
	JNE   loop2x1

done2:
	RET

// func axpy1(a float64, x, y []float64)
TEXT ·axpy1(SB), NOSPLIT, $0-56
	MOVSD    a+0(FP), X0
	UNPCKLPD X0, X0
	MOVQ     x_base+8(FP), SI
	MOVQ     y_base+32(FP), DI
	MOVQ     y_len+40(FP), CX
	SUBQ     $4, CX
	JL       tail1

loop1x4:
	MOVUPD (DI), X2
	MOVUPD 16(DI), X3
	MOVUPD (SI), X4
	MOVUPD 16(SI), X5
	MULPD  X0, X4
	MULPD  X0, X5
	ADDPD  X4, X2
	ADDPD  X5, X3
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $4, CX
	JGE    loop1x4

tail1:
	ADDQ $4, CX
	JE   done1

loop1x1:
	MOVSD (DI), X2
	MOVSD (SI), X4
	MULSD X0, X4
	ADDSD X4, X2
	MOVSD X2, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNE   loop1x1

done1:
	RET
