//go:build amd64

package nn

// axpy32 computes y[i] += alpha * x[i] over len(x) elements with SSE lanes.
// Per-element semantics match the scalar loop exactly (one IEEE multiply,
// one IEEE add, ascending index), so composed kernels stay bit-identical to
// their pure-Go counterparts. len(y) >= len(x) is the caller's contract.
//
//go:noescape
func axpy32(alpha float32, x, y []float32)

// dot32 returns Σ x[i]·y[i] over len(x) elements. Accumulation runs in four
// independent SSE lane groups reduced at the end — a different association
// than the scalar loop, acceptable on the q-error-gated float32 path only.
// len(y) >= len(x) is the caller's contract.
//
//go:noescape
func dot32(x, y []float32) float32

// useAVX routes the float64 serving kernels (serve64.go) to their AVX
// implementations. It is set once at package init from the CPUID and XGETBV
// check in cpuAVX2; tests flip it to compare both paths in one process.
var useAVX = cpuAVX2()

// cpuAVX2 reports whether the CPU supports AVX2 and the OS saves YMM state.
func cpuAVX2() bool

// gemm64 sets dst[r*ds+c] = Σ_{kk<k} a[r*as+kk]·b[kk*bs+c] for r < rows and
// c < n, every element summed from +0 over ascending kk with separate
// rounded multiplies and adds, lanes running across c. The slices must cover
// every addressed element. AVX hosts only.
//
//go:noescape
func gemm64(dst, a, b []float64, ds, as, bs, rows, k, n int)

// embAxpy64 adds Σ_j v_j·w[j*ws : j*ws+n] into y[:n] with v_j = emb[j]·sign,
// rows in ascending j and rows with v_j == 0 skipped — per element the
// scalar j-outer axpy sequence, on AVX lanes with y held in registers across
// all rows. The slices must cover every addressed element. AVX hosts only.
//
//go:noescape
func embAxpy64(y, w, emb []float64, sign float64, ws, n int)
