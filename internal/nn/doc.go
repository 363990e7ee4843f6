// Package nn is the from-scratch neural-network kernel library NeuroCard's
// deep autoregressive model is built on: dense matrices, (masked) linear
// layers, embeddings, ReLU, softmax/cross-entropy, and the Adam optimizer
// with gradient clipping. All operations are hand-derived forward/backward
// pairs validated against finite differences; matrix products parallelize
// across a persistent worker pool (see Pool), and sessions that must not
// oversubscribe the CPU run the same kernels through the Serial pool.
//
// # Element widths
//
// Matrices and serving kernels are generic over Elem (float32 | float64).
// Mat aliases MatG[float64] — the width training, checkpoints, and the
// default serving path use — and Mat32 aliases MatG[float32], the
// reduced-precision serving width built by converting float64 weights once
// at estimator load (Convert32 row-major, ConvertT32 transposed). Each
// serving kernel exists twice:
//
//	width    training  serving kernels                entry points
//	float64  yes       matmul/sub/cols/bᵀ, bias,      Pool methods (MatMul, …)
//	                   softmax, fused epilogues       and package functions
//	float32  never     SSE2 specializations: axpy32/  same generic *G functions
//	                   dot32 assembly (simd_amd64.s), (dispatch by dynamic
//	                   exp32 softmax, transposed-     type inside), plus
//	                   weight products                Axpy32/Dot32/MatMulColsBT32
//
// The generic entry points (MatMulG, MatMulSubG, MatMulColsG, MatMulBTG,
// AddBiasG, SoftmaxRowsG, AddBiasReluCols, AddBiasResidualCols) take the
// Pool as their first parameter because Go methods cannot declare type
// parameters; the float64 Pool methods are thin wrappers over them. Inside
// each generic function the float32 instantiation dispatches to the SSE
// specializations in mat32.go (Go does not auto-vectorize, so scalar
// float32 would run no faster than float64); the float64 instantiation
// keeps the register-blocked scalar chunks and their bit-determinism
// contract. The float32 kernels answer to a different contract — measured
// golden-workload q-error, DESIGN.md §1.4 — which is what licenses the
// reassociating dot reduction and the polynomial exp32. On non-amd64
// builds the assembly falls back to pure Go (simd_generic.go) with
// identical per-element semantics. Gradient kernels (MatMulATAdd,
// BiasGradAdd, CrossEntropy, CrossEntropyInPlace) are float64-only:
// training never runs at reduced precision.
//
// # AVX float64 serving kernels
//
// The float64 inference session has its own entry points in serve64.go:
// MatMulCols64 (trunk extension, head projection, and logits over a
// transposed embedding) and EmbedAxpy64 (the SetToken delta). An assembly CPUID + XGETBV check (cpuAVX2) sets useAVX once at
// package init when the CPU has AVX2 and the OS saves YMM state; each entry
// point then runs gemm64 or embAxpy64 from simd_amd64.s, and otherwise its
// scalar chunk. The AVX kernels put four float64 lanes across output
// elements, never along a reduction, and multiply and add with separate
// VMULPD/VADDPD (no FMA), so every element keeps the scalar operation
// sequence and the results are bit-identical to the scalar kernels for
// finite weights — the float64 contract is unchanged. Training does not
// call them. Tests flip useAVX to compare both paths in one process.
//
// # Kernel structure
//
// Kernels are written as a thin dispatch over named chunk functions: the
// serial path calls the chunk directly (no closure, no allocation), and the
// parallel path wraps it in a closure only when chunks are actually handed
// to pool workers. The hot matmuls use 4-row register blocking, which
// quarters weight-matrix memory traffic and gives four independent
// accumulation streams while preserving the scalar loop's per-element
// accumulation order exactly — the basis of the serving path's
// bit-determinism guarantees (DESIGN.md §1.2, §1.4).
//
// Work too small to split by rows runs as whole tasks instead: Pool.RunTasks
// hands n independent tasks to the pool's slots, and each task calls the
// kernels on Serial. Training heads use it, one task per column (DESIGN.md
// §1.3).
//
// The paper trains its ResMADE with PyTorch on a GPU; this package is the
// substitution that keeps the estimator's statistics identical (maximum
// likelihood on the same architecture) while running on CPUs with the
// standard library only.
package nn
