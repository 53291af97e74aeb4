#include "textflag.h"

// SSE2 only: MOVUPS loads and stores (slices of float32 are 4-byte
// aligned, so no aligned form and no packed memory operand), MULPS then
// ADDPS or SUBPS, SQRTPS and DIVPS for AdaGrad, and the scalar forms for a
// tail shorter than four (AdaGrad and Add leave theirs to Go). No FMA:
// each lane rounds the product and then the sum, as the Go twin in
// kernel.go does.

// func axpySSE(a float32, x, y []float32)
// y[i] += a*x[i] for i < len(x); len(y) >= len(x).
TEXT ·axpySSE(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX

axpy16:
	CMPQ   AX, DX
	JAE    axpy4start
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MOVUPS 32(SI)(AX*4), X3
	MOVUPS 48(SI)(AX*4), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI)(AX*4), X5
	MOVUPS 16(DI)(AX*4), X6
	MOVUPS 32(DI)(AX*4), X7
	MOVUPS 48(DI)(AX*4), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DI)(AX*4)
	MOVUPS X2, 16(DI)(AX*4)
	MOVUPS X3, 32(DI)(AX*4)
	MOVUPS X4, 48(DI)(AX*4)
	ADDQ   $16, AX
	JMP    axpy16

axpy4start:
	MOVQ CX, DX
	ANDQ $-4, DX

axpy4:
	CMPQ   AX, DX
	JAE    axpy1
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X2
	ADDPS  X2, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    axpy4

axpy1:
	CMPQ  AX, CX
	JAE   axpydone
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	ADDSS (DI)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   axpy1

axpydone:
	RET

// func gemvTSSE(y, x, wT []float32)
// y[o] += x[i]*wT[i*len(y)+o], ascending i; len(y) is a multiple of 4 and
// len(wT) >= len(x)*len(y). Each block of columns keeps its y in
// registers for the whole pass over x: sixteen columns while they last,
// then four. The sum is product + y, as the compiled twin adds it (only a
// pair of NaNs tells the order), so it lands in the product's register
// and moves back.
TEXT ·gemvTSSE(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ wT_base+48(FP), R8
	LEAQ (BX*4), R9        // bytes per row of wT
	XORQ DX, DX            // first column of the block
	MOVQ BX, R10
	ANDQ $-16, R10

gemv16:
	CMPQ   DX, R10
	JAE    gemv4start
	MOVUPS (DI)(DX*4), X0
	MOVUPS 16(DI)(DX*4), X1
	MOVUPS 32(DI)(DX*4), X2
	MOVUPS 48(DI)(DX*4), X3
	LEAQ   (R8)(DX*4), R11 // &wT[0*len(y) + column]
	MOVQ   SI, R12         // &x[i]
	MOVQ   CX, AX          // rows left
	TESTQ  AX, AX
	JZ     gemv16store

gemv16row:
	MOVSS  (R12), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R11), X5
	MOVUPS 16(R11), X6
	MOVUPS 32(R11), X7
	MOVUPS 48(R11), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X0, X5
	ADDPS  X1, X6
	ADDPS  X2, X7
	ADDPS  X3, X8
	MOVAPS X5, X0
	MOVAPS X6, X1
	MOVAPS X7, X2
	MOVAPS X8, X3
	ADDQ   $4, R12
	ADDQ   R9, R11
	DECQ   AX
	JNZ    gemv16row

gemv16store:
	MOVUPS X0, (DI)(DX*4)
	MOVUPS X1, 16(DI)(DX*4)
	MOVUPS X2, 32(DI)(DX*4)
	MOVUPS X3, 48(DI)(DX*4)
	ADDQ   $16, DX
	JMP    gemv16

gemv4start:
	MOVQ BX, R10
	ANDQ $-4, R10

gemv4:
	CMPQ   DX, R10
	JAE    gemvdone
	MOVUPS (DI)(DX*4), X0
	LEAQ   (R8)(DX*4), R11
	MOVQ   SI, R12
	MOVQ   CX, AX
	TESTQ  AX, AX
	JZ     gemv4store

gemv4row:
	MOVSS  (R12), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X0, X5
	MOVAPS X5, X0
	ADDQ   $4, R12
	ADDQ   R9, R11
	DECQ   AX
	JNZ    gemv4row

gemv4store:
	MOVUPS X0, (DI)(DX*4)
	ADDQ   $4, DX
	JMP    gemv4

gemvdone:
	RET

// func fmGradSSE(dz float32, s, v, g []float32)
// g[j] += dz*(s[j%len(s)] - v[j]) for j < len(v); len(g) >= len(v). v is
// walked one field of len(s) floats at a time, the last possibly short.
TEXT ·fmGradSSE(SB), NOSPLIT, $0-80
	MOVSS  dz+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   s_base+8(FP), R8
	MOVQ   s_len+16(FP), BX
	MOVQ   v_base+32(FP), SI
	MOVQ   v_len+40(FP), CX // floats of v left
	MOVQ   g_base+56(FP), DI
	TESTQ  BX, BX
	JZ     fmdone

fmfield:
	TESTQ   CX, CX
	JZ      fmdone
	MOVQ    BX, DX
	CMPQ    CX, DX
	CMOVQLT CX, DX          // this field's floats: min(len(s), left)
	SUBQ    DX, CX
	MOVQ    DX, R9
	ANDQ    $-4, R9
	XORQ    AX, AX

fm4:
	CMPQ   AX, R9
	JAE    fm1
	MOVUPS (R8)(AX*4), X1
	MOVUPS (SI)(AX*4), X2
	SUBPS  X2, X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X2
	ADDPS  X2, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    fm4

fm1:
	CMPQ  AX, DX
	JAE   fmnext
	MOVSS (R8)(AX*4), X1
	SUBSS (SI)(AX*4), X1
	MULSS X0, X1
	ADDSS (DI)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   fm1

fmnext:
	LEAQ (SI)(DX*4), SI
	LEAQ (DI)(DX*4), DI
	JMP  fmfield

fmdone:
	RET

// func adaGradSSE(lr, eps float32, w, s, g []float32)
// For i < len(g): s[i] += g[i]*g[i]; w[i] -= lr*g[i] / (sqrt(s[i]) + eps).
// len(g) is a multiple of 4 and len(w), len(s) >= len(g). Each operation
// takes its operands in the order the compiled Go twin does, which only a
// pair of NaNs can tell apart: g*g + s, g*lr, sqrt + eps, then the
// quotient and the difference.
TEXT ·adaGradSSE(SB), NOSPLIT, $0-80
	MOVSS  lr+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  eps+4(FP), X1
	SHUFPS $0x00, X1, X1
	MOVQ   w_base+8(FP), DI
	MOVQ   s_base+32(FP), R8
	MOVQ   g_base+56(FP), SI
	MOVQ   g_len+64(FP), CX
	XORQ   AX, AX

ada4:
	CMPQ   AX, CX
	JAE    adadone
	MOVUPS (SI)(AX*4), X2
	MOVAPS X2, X3
	MULPS  X2, X2
	MOVUPS (R8)(AX*4), X4
	ADDPS  X4, X2
	MOVUPS X2, (R8)(AX*4)
	MULPS  X0, X3
	SQRTPS X2, X2
	ADDPS  X1, X2
	DIVPS  X2, X3
	MOVUPS (DI)(AX*4), X4
	SUBPS  X3, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    ada4

adadone:
	RET

// func addSSE(dst, src []float32)
// dst[i] += src[i] for i < len(dst); len(dst) is a multiple of 4 and
// len(src) >= len(dst).
TEXT ·addSSE(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

add16:
	CMPQ   AX, DX
	JAE    add4
	MOVUPS (DI)(AX*4), X0
	MOVUPS 16(DI)(AX*4), X1
	MOVUPS 32(DI)(AX*4), X2
	MOVUPS 48(DI)(AX*4), X3
	MOVUPS (SI)(AX*4), X4
	MOVUPS 16(SI)(AX*4), X5
	MOVUPS 32(SI)(AX*4), X6
	MOVUPS 48(SI)(AX*4), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, (DI)(AX*4)
	MOVUPS X1, 16(DI)(AX*4)
	MOVUPS X2, 32(DI)(AX*4)
	MOVUPS X3, 48(DI)(AX*4)
	ADDQ   $16, AX
	JMP    add16

add4:
	CMPQ   AX, CX
	JAE    adddone
	MOVUPS (DI)(AX*4), X0
	MOVUPS (SI)(AX*4), X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    add4

adddone:
	RET
