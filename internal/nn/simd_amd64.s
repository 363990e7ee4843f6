// SSE2 float32 kernels for the reduced-precision serving path. amd64
// guarantees SSE2, so no CPU feature detection is needed. Both functions are
// leaf NOSPLIT routines with stack (ABI0) arguments.
//
// axpy32 keeps scalar IEEE semantics per element (one multiply, one add, in
// index order), so callers composing it per ascending k produce results
// bit-identical to the pure-Go loops. dot32 accumulates in four independent
// lane groups and reduces at the end — a different association than the
// scalar loop, which the float32 serving path's q-error gate (not bit
// equivalence) permits.

#include "textflag.h"

// func axpy32(alpha float32, x, y []float32)
// y[i] += alpha * x[i] for i < len(x). Caller guarantees len(y) >= len(x).
TEXT ·axpy32(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	SHUFPS $0x00, X0, X0 // broadcast alpha into all four lanes
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-16, BX

axpy_loop16:
	CMPQ   AX, BX
	JGE    axpy_setup4
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
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)(AX*4)
	MOVUPS X6, 16(DI)(AX*4)
	MOVUPS X7, 32(DI)(AX*4)
	MOVUPS X8, 48(DI)(AX*4)
	ADDQ   $16, AX
	JMP    axpy_loop16

axpy_setup4:
	MOVQ CX, BX
	ANDQ $-4, BX

axpy_loop4:
	CMPQ   AX, BX
	JGE    axpy_scalar
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    axpy_loop4

axpy_scalar:
	CMPQ  AX, CX
	JGE   axpy_done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X5
	ADDSS X1, X5
	MOVSS X5, (DI)(AX*4)
	INCQ  AX
	JMP   axpy_scalar

axpy_done:
	RET

// func dot32(x, y []float32) float32
// Returns Σ x[i]*y[i] for i < len(x). Caller guarantees len(y) >= len(x).
TEXT ·dot32(SB), NOSPLIT, $0-52
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y_base+24(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-16, BX

dot_loop16:
	CMPQ   AX, BX
	JGE    dot_setup4
	MOVUPS (SI)(AX*4), X4
	MOVUPS 16(SI)(AX*4), X5
	MOVUPS 32(SI)(AX*4), X6
	MOVUPS 48(SI)(AX*4), X7
	MOVUPS (DI)(AX*4), X8
	MOVUPS 16(DI)(AX*4), X9
	MOVUPS 32(DI)(AX*4), X10
	MOVUPS 48(DI)(AX*4), X11
	MULPS  X8, X4
	MULPS  X9, X5
	MULPS  X10, X6
	MULPS  X11, X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDQ   $16, AX
	JMP    dot_loop16

dot_setup4:
	MOVQ CX, BX
	ANDQ $-4, BX

dot_loop4:
	CMPQ   AX, BX
	JGE    dot_reduce
	MOVUPS (SI)(AX*4), X4
	MOVUPS (DI)(AX*4), X8
	MULPS  X8, X4
	ADDPS  X4, X0
	ADDQ   $4, AX
	JMP    dot_loop4

dot_reduce:
	ADDPS  X1, X0
	ADDPS  X3, X2
	ADDPS  X2, X0
	MOVAPS X0, X1
	SHUFPS $0xEE, X1, X1 // lanes [2,3,2,3]
	ADDPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1 // lane 1 everywhere
	ADDSS  X1, X0

dot_scalar:
	CMPQ  AX, CX
	JGE   dot_done
	MOVSS (SI)(AX*4), X4
	MULSS (DI)(AX*4), X4
	ADDSS X4, X0
	INCQ  AX
	JMP   dot_scalar

dot_done:
	MOVSS X0, ret+48(FP)
	RET

// ---- AVX float64 serving kernels ----
//
// Four float64 lanes per YMM register, products and sums as separate
// VMULPD/VADDPD (never FMA, which rounds once per multiply-add), every
// kernel vectorized across output elements and never along a reduction.
// Each output element therefore sees exactly the scalar sequence: start at
// +0 (or at its current value, for embAxpy64), then one rounded multiply and
// one rounded add per reduction step in ascending order. Every kernel ends
// with VZEROUPPER so SSE code that follows pays no transition penalty. The
// Go side runs them only when cpuAVX2 reported true at package init.

// laneMask<>: sixteen all-ones quadwords then sixteen zero quadwords.
// Loading lanes at byte offset 8·(16-width) yields a mask whose first
// width lanes (width ≤ 16) are set: the column-tail mask of VMASKMOVPD.
DATA laneMask<>+0x00(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x08(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x10(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x18(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x20(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x28(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x30(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x38(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x40(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x48(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x50(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x58(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x60(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x68(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x70(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x78(SB)/8, $0xffffffffffffffff
DATA laneMask<>+0x80(SB)/8, $0
DATA laneMask<>+0x88(SB)/8, $0
DATA laneMask<>+0x90(SB)/8, $0
DATA laneMask<>+0x98(SB)/8, $0
DATA laneMask<>+0xa0(SB)/8, $0
DATA laneMask<>+0xa8(SB)/8, $0
DATA laneMask<>+0xb0(SB)/8, $0
DATA laneMask<>+0xb8(SB)/8, $0
DATA laneMask<>+0xc0(SB)/8, $0
DATA laneMask<>+0xc8(SB)/8, $0
DATA laneMask<>+0xd0(SB)/8, $0
DATA laneMask<>+0xd8(SB)/8, $0
DATA laneMask<>+0xe0(SB)/8, $0
DATA laneMask<>+0xe8(SB)/8, $0
DATA laneMask<>+0xf0(SB)/8, $0
DATA laneMask<>+0xf8(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $256

// func cpuAVX2() bool
// Reports AVX2 support with YMM state enabled by the OS: CPUID leaf 1
// (OSXSAVE, AVX), XCR0 bits 1-2 (XMM and YMM state), CPUID leaf 7 (AVX2).
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no_avx2
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no_avx2
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no_avx2
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX
	JZ    no_avx2
	MOVB  $1, ret+0(FP)
	RET

no_avx2:
	MOVB $0, ret+0(FP)
	RET

// ROWPTR sets reg to the address of row min(R8+off, R13) of a matrix with
// base and row stride (elements) given as frame arguments. R8 is the first
// row of the current 4-row block and R13 the last row: rows past the end of
// a partial block alias the last row, so their lanes compute (and store)
// exactly that row's values.
#define ROWPTR(off, base, stride, reg) \
	LEAQ    off(R8), reg; \
	CMPQ    reg, R13; \
	CMOVQGT R13, reg; \
	IMULQ   stride, reg; \
	SHLQ    $3, reg; \
	ADDQ    base, reg

// STEP8 accumulates one reduction step of one row into an 8-column block:
// ACC0/ACC1 += bcast(a[row][kk]) * b[kk][c:c+8] (b already in Y8, Y9).
#define STEP8(arow, ACC0, ACC1) \
	VBROADCASTSD (arow)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, ACC0, ACC0; \
	VADDPD       Y12, ACC1, ACC1

// STEP4 is STEP8 for a block of at most 4 columns (b in Y8).
#define STEP4(arow, ACC) \
	VBROADCASTSD (arow)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, ACC, ACC

// DSTPTR sets R12 to the address of column R9 of row min(R8+off, R13) of
// dst (base and row stride as in ROWPTR).
#define DSTPTR(off, base, stride) \
	LEAQ    off(R8), R12; \
	CMPQ    R12, R13; \
	CMOVQGT R13, R12; \
	IMULQ   stride, R12; \
	ADDQ    R9, R12; \
	SHLQ    $3, R12; \
	ADDQ    base, R12

// func gemm64(dst, a, b []float64, ds, as, bs, rows, k, n int)
// dst[r*ds+c] = Σ_{kk<k} a[r*as+kk] · b[kk*bs+c] for r < rows, c < n,
// each sum accumulated from +0 in ascending kk. Rows run in blocks of 4
// (one accumulator set per row), columns in lane blocks of 8, or of 4 for a
// final block of at most 4 columns; the column tail is masked on load and
// store, so nothing outside the n columns of a row is read or written.
// Caller guarantees the slices cover every row and column addressed.
TEXT ·gemm64(SB), NOSPLIT, $0-120
	MOVQ bs+88(FP), BX
	SHLQ $3, BX               // b row stride in bytes
	MOVQ k+104(FP), CX
	MOVQ rows+96(FP), R13
	DECQ R13                  // last row
	XORQ R8, R8               // first row of the block

gemm_rows:
	CMPQ   R8, rows+96(FP)
	JGE    gemm_done
	ROWPTR(0, a_base+24(FP), as+80(FP), SI)
	ROWPTR(1, a_base+24(FP), as+80(FP), DI)
	ROWPTR(2, a_base+24(FP), as+80(FP), R10)
	ROWPTR(3, a_base+24(FP), as+80(FP), R11)
	XORQ   R9, R9             // first column of the block

gemm_cols:
	MOVQ    n+112(FP), R12
	SUBQ    R9, R12           // columns left
	JLE     gemm_next_rows
	MOVQ    $8, AX
	CMPQ    R12, AX
	CMOVQGT AX, R12           // block width, at most 8
	NEGQ    R12
	LEAQ    laneMask<>(SB), AX
	VMOVUPD 128(AX)(R12*8), Y14 // lanes < width set
	VMOVUPD 160(AX)(R12*8), Y15
	NEGQ    R12
	MOVQ    b_base+48(FP), DX
	LEAQ    (DX)(R9*8), DX    // &b[0][c]
	XORQ    AX, AX            // kk
	CMPQ    R12, $4
	JLE     gemm_narrow

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

gemm_k8:
	CMPQ       AX, CX
	JGE        gemm_store8
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	STEP8(SI, Y0, Y1)
	STEP8(DI, Y2, Y3)
	STEP8(R10, Y4, Y5)
	STEP8(R11, Y6, Y7)
	ADDQ       BX, DX
	INCQ       AX
	JMP        gemm_k8

gemm_store8:
	DSTPTR(0, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y0, Y14, (R12)
	VMASKMOVPD Y1, Y15, 32(R12)
	DSTPTR(1, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y2, Y14, (R12)
	VMASKMOVPD Y3, Y15, 32(R12)
	DSTPTR(2, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y4, Y14, (R12)
	VMASKMOVPD Y5, Y15, 32(R12)
	DSTPTR(3, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y6, Y14, (R12)
	VMASKMOVPD Y7, Y15, 32(R12)
	ADDQ       $8, R9
	JMP        gemm_cols

gemm_narrow:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

gemm_k4:
	CMPQ       AX, CX
	JGE        gemm_store4
	VMASKMOVPD (DX), Y14, Y8
	STEP4(SI, Y0)
	STEP4(DI, Y1)
	STEP4(R10, Y2)
	STEP4(R11, Y3)
	ADDQ       BX, DX
	INCQ       AX
	JMP        gemm_k4

gemm_store4:
	DSTPTR(0, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y0, Y14, (R12)
	DSTPTR(1, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y1, Y14, (R12)
	DSTPTR(2, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y2, Y14, (R12)
	DSTPTR(3, dst_base+0(FP), ds+72(FP))
	VMASKMOVPD Y3, Y14, (R12)

gemm_next_rows:
	ADDQ $4, R8
	JMP  gemm_rows

gemm_done:
	VZEROUPPER
	RET

// func embAxpy64(y, w, emb []float64, sign float64, ws, n int)
// For j < len(emb) in ascending order, with v = emb[j]*sign and v != 0:
// y[c] += v * w[j*ws+c] for c < n. The y slice is processed in column
// blocks of 16 held in Y0-Y3 across all j, the block tail masked on load
// and store. Per element this is exactly the scalar j-outer loop.
TEXT ·embAxpy64(SB), NOSPLIT, $0-96
	MOVQ  y_base+0(FP), DI
	MOVQ  w_base+24(FP), SI
	MOVQ  emb_base+48(FP), R8
	MOVQ  emb_len+56(FP), CX
	VMOVSD sign+72(FP), X6
	MOVQ  ws+80(FP), BX
	SHLQ  $3, BX               // w row stride in bytes
	MOVQ  n+88(FP), DX
	LEAQ  laneMask<>(SB), R11
	VXORPD X7, X7, X7          // +0 for the v == 0 test

emb_cols:
	CMPQ    DX, $0
	JLE     emb_done
	MOVQ    DX, R12
	MOVQ    $16, AX
	CMPQ    R12, AX
	CMOVQGT AX, R12            // block width, at most 16
	NEGQ    R12
	VMOVUPD 128(R11)(R12*8), Y12
	VMOVUPD 160(R11)(R12*8), Y13
	VMOVUPD 192(R11)(R12*8), Y14
	VMOVUPD 224(R11)(R12*8), Y15
	NEGQ    R12
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	VMASKMOVPD 64(DI), Y14, Y2
	VMASKMOVPD 96(DI), Y15, Y3
	MOVQ    SI, R10            // &w[j][c]
	XORQ    AX, AX             // j

emb_rows:
	CMPQ       AX, CX
	JGE        emb_store
	VMULSD     (R8)(AX*8), X6, X4 // v = emb[j] * sign
	VUCOMISD   X7, X4
	JNE        emb_row
	JPS        emb_row            // NaN: not zero, keep
	JMP        emb_next

emb_row:
	VBROADCASTSD X4, Y4
	VMASKMOVPD   (R10), Y12, Y5
	VMASKMOVPD   32(R10), Y13, Y8
	VMASKMOVPD   64(R10), Y14, Y9
	VMASKMOVPD   96(R10), Y15, Y10
	VMULPD       Y5, Y4, Y5
	VMULPD       Y8, Y4, Y8
	VMULPD       Y9, Y4, Y9
	VMULPD       Y10, Y4, Y10
	VADDPD       Y5, Y0, Y0
	VADDPD       Y8, Y1, Y1
	VADDPD       Y9, Y2, Y2
	VADDPD       Y10, Y3, Y3

emb_next:
	ADDQ BX, R10
	INCQ AX
	JMP  emb_rows

emb_store:
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	VMASKMOVPD Y3, Y15, 96(DI)
	ADDQ       $128, DI
	ADDQ       $128, SI
	SUBQ       R12, DX
	JMP        emb_cols

emb_done:
	VZEROUPPER
	RET
