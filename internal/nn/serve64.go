package nn

import "fmt"

// Float64 serving kernels. Each computes exactly what its scalar
// counterpart computes — every output element summed from +0 (or updated in
// place, for EmbedAxpy64) over ascending k, one rounded multiply and one
// rounded add per step — but on hosts with AVX2 it runs four float64 lanes
// across output elements (gemm64/embAxpy64 in simd_amd64.s; never FMA, never
// a reassociated reduction). The results are therefore bit-identical to the
// scalar kernels for finite weights: gemm64 drops the scalar kernels'
// skipping of all-zero activation rows, which changes nothing unless a
// weight is ±Inf or NaN. Without AVX2 every entry point runs the scalar
// code. Only the float64 inference session calls them; training keeps the
// generic kernels.

// AVX reports whether the float64 serving kernels run on AVX lanes.
func AVX() bool { return useAVX }

// MatMulCols64 is MatMulColsG at float64 on AVX lanes. The float64 session
// runs all three of its matmuls through it: the trunk extension, the head
// projection (cl = 0, ch = EmbedDim) and the logits (a = the projection,
// b = the E×D transposed embedding, cl = 0, ch = D — bit-identical to
// MatMulBTG over the D×E original, since each element is the same
// ascending-k sum from +0).
func MatMulCols64(p *Pool, dst, a, b *Mat, k, cl, ch int) {
	if !useAVX {
		MatMulColsG(p, dst, a, b, k, cl, ch)
		return
	}
	if k > a.Cols || k > b.Rows || cl < 0 || cl > ch || ch > b.Cols || ch > dst.Cols || dst.Rows != a.Rows {
		panic(fmt.Sprintf("nn: MatMulCols64 dims %dx%d[:%d] · %dx%d[%d:%d] -> %dx%d",
			a.Rows, a.Cols, k, b.Rows, b.Cols, cl, ch, dst.Rows, dst.Cols))
	}
	if dst.Rows == 0 || cl == ch {
		return
	}
	if p.inline(dst.Rows) {
		matMulColsChunk64(dst, a, b, k, cl, ch, 0, dst.Rows)
		return
	}
	p.parallelFor(dst.Rows, func(lo, hi int) { matMulColsChunk64(dst, a, b, k, cl, ch, lo, hi) })
}

func matMulColsChunk64(dst, a, b *Mat, k, cl, ch, lo, hi int) {
	bc := b.Data
	if k > 0 {
		bc = bc[cl:]
	}
	gemm64(dst.Data[lo*dst.Cols+cl:], a.Data[lo*a.Cols:], bc,
		dst.Cols, a.Cols, b.Cols, hi-lo, k, ch-cl)
}

// EmbedAxpy64 adds Σ_j v_j·w[row+j][col : col+len(y)) into y with
// v_j = emb[j]·sign, rows in ascending j and rows with v_j == 0 skipped: the
// float64 session's SetToken delta (an embedding row times its block of the
// input weight). Bit-identical to the scalar j-outer axpy loop; on AVX
// hosts y stays in registers across the rows.
func EmbedAxpy64(y []float64, w *Mat, row, col int, emb []float64, sign float64) {
	if row < 0 || col < 0 || row+len(emb) > w.Rows || col+len(y) > w.Cols {
		panic(fmt.Sprintf("nn: EmbedAxpy64 rows [%d,%d) cols [%d,%d) of %dx%d",
			row, row+len(emb), col, col+len(y), w.Rows, w.Cols))
	}
	if len(y) == 0 || len(emb) == 0 {
		return
	}
	if useAVX {
		embAxpy64(y, w.Data[row*w.Cols+col:], emb, sign, w.Cols, len(y))
		return
	}
	for j, e := range emb {
		v := e * sign
		if v == 0 {
			continue
		}
		for c, wv := range w.Row(row + j)[col:][:len(y)] {
			y[c] += v * wv
		}
	}
}
