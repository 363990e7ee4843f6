//go:build !amd64

package nn

// Portable fallbacks for the SIMD kernels in simd_amd64.s. Same contracts:
// len(y) >= len(x), scalar per-element semantics for axpy32.

// useAVX is false off amd64: the float64 serving kernels run their scalar
// chunks.
var useAVX = false

func axpy32(alpha float32, x, y []float32) {
	_ = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

func dot32(x, y []float32) float32 {
	_ = y[:len(x)]
	var sum float32
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// gemm64 and embAxpy64 have only the amd64 assembly implementation; with
// useAVX false the serving entry points never reach them.

func gemm64(dst, a, b []float64, ds, as, bs, rows, k, n int) {
	panic("nn: gemm64 needs AVX")
}

func embAxpy64(y, w, emb []float64, sign float64, ws, n int) {
	panic("nn: embAxpy64 needs AVX")
}
