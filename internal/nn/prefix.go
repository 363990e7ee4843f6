package nn

import "fmt"

// Prefix-structured masked kernels.
//
// MADE with sorted degree assignment gives every masked weight matrix W a
// banded structure: row j of W is nonzero exactly on the contiguous column
// suffix [start[j], W.Cols) — equivalently, output column k reads only a
// contiguous input prefix. The kernels below take that per-row start table
// (or its transposed dual, a per-row extent table) and skip the
// structurally-zero region instead of multiplying through it, cutting
// roughly half the FLOPs of every trunk matmul in both the forward and
// backward pass. Because every skipped entry is an exact zero, the results
// are bit-identical to the dense kernels (up to the sign of zero).

func checkSuffix(start []int, rows, cols int, name string) {
	if len(start) != rows {
		panic(fmt.Sprintf("nn: %s start table has %d entries for %d rows", name, len(start), rows))
	}
	for _, s := range start {
		if s < 0 || s > cols {
			panic(fmt.Sprintf("nn: %s start %d out of [0,%d]", name, s, cols))
		}
	}
}

func checkPrefix(ext []int, rows, cols int, name string) {
	if len(ext) != rows {
		panic(fmt.Sprintf("nn: %s extent table has %d entries for %d rows", name, len(ext), rows))
	}
	for _, e := range ext {
		if e < 0 || e > cols {
			panic(fmt.Sprintf("nn: %s extent %d out of [0,%d]", name, e, cols))
		}
	}
}

func matMulRowSuffixChunk(dst, a, b *Mat, start []int, lo, hi int) {
	i := lo
	// 4-row register blocking (see matMulChunk): per-element accumulation
	// order is unchanged, b-row traffic is quartered.
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for k, av0 := range a0 {
			av1, av2, av3 := a1[k], a2[k], a3[k]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			s := start[k]
			brow := b.Row(k)[s:]
			e0 := d0[s:][:len(brow)]
			e1 := d1[s:][:len(brow)]
			e2 := d2[s:][:len(brow)]
			e3 := d3[s:][:len(brow)]
			for j, bv := range brow {
				e0[j] += av0 * bv
				e1[j] += av1 * bv
				e2[j] += av2 * bv
				e3[j] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			s := start[k]
			brow := b.Row(k)[s:]
			dsub := drow[s:][:len(brow)]
			for j, bv := range brow {
				dsub[j] += av * bv
			}
		}
	}
}

// MatMulRowSuffix sets dst = a·b where row k of b is nonzero only on columns
// [start[k], b.Cols). Forward pass of a suffix-masked linear layer.
func (p *Pool) MatMulRowSuffix(dst, a, b *Mat, start []int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulRowSuffix dims %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	checkSuffix(start, b.Rows, b.Cols, "MatMulRowSuffix")
	if p.inline(a.Rows) {
		matMulRowSuffixChunk(dst, a, b, start, 0, a.Rows)
		return
	}
	p.parallelFor(a.Rows, func(lo, hi int) { matMulRowSuffixChunk(dst, a, b, start, lo, hi) })
}

// MatMulRowSuffix runs on the default pool.
func MatMulRowSuffix(dst, a, b *Mat, start []int) { defaultPool.MatMulRowSuffix(dst, a, b, start) }

func matMulATAddRowSuffixChunk(dst, a, b *Mat, start []int, lo, hi int) {
	k := 0
	// 4-batch-row blocking: each pass over dst accumulates four batch rows'
	// outer products as four sequential adds per element — ascending-k
	// order exactly as the scalar loop, a quarter of the gradient traffic.
	for ; k+4 <= a.Rows; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		for i := lo; i < hi; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			s := start[i]
			drow := dst.Row(i)[s:]
			c0 := b0[s:][:len(drow)]
			c1 := b1[s:][:len(drow)]
			c2 := b2[s:][:len(drow)]
			c3 := b3[s:][:len(drow)]
			for j := range drow {
				drow[j] += av0 * c0[j]
				drow[j] += av1 * c1[j]
				drow[j] += av2 * c2[j]
				drow[j] += av3 * c3[j]
			}
		}
	}
	for ; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			s := start[i]
			drow := dst.Row(i)[s:]
			for j, bv := range brow[s:][:len(drow)] {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulATAddRowSuffix accumulates dst += aᵀ·b restricted to the suffix
// structure: dst[j][k] is touched only for k ≥ start[j]. The weight-gradient
// kernel for a suffix-masked layer — masked entries are never written, so no
// separate gradient re-masking pass is needed.
func (p *Pool) MatMulATAddRowSuffix(dst, a, b *Mat, start []int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulATAddRowSuffix dims %dx%dᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	checkSuffix(start, dst.Rows, dst.Cols, "MatMulATAddRowSuffix")
	if p.inline(a.Cols) {
		matMulATAddRowSuffixChunk(dst, a, b, start, 0, a.Cols)
		return
	}
	p.parallelFor(a.Cols, func(lo, hi int) { matMulATAddRowSuffixChunk(dst, a, b, start, lo, hi) })
}

// MatMulATAddRowSuffix runs on the default pool.
func MatMulATAddRowSuffix(dst, a, b *Mat, start []int) {
	defaultPool.MatMulATAddRowSuffix(dst, a, b, start)
}

// MatMulATAddSub accumulates dst[:k] += a[:, :k]ᵀ·b: only the first k rows
// of dst are touched. Head weight gradients use it with k = the head's
// hidden-prefix width — rows beyond the prefix read zeroed hidden units and
// must keep zero gradient. The loop body is MatMulATAdd's chunk restricted
// to the leading k columns of a.
func (p *Pool) MatMulATAddSub(dst, a, b *Mat, k int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols || k > a.Cols {
		panic(fmt.Sprintf("nn: MatMulATAddSub dims %dx%d[:%d]ᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, k, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if p.inline(k) {
		matMulATAddChunk(dst, a, b, 0, k)
		return
	}
	p.parallelFor(k, func(lo, hi int) { matMulATAddChunk(dst, a, b, lo, hi) })
}

// MatMulATAddSub runs on the default pool.
func MatMulATAddSub(dst, a, b *Mat, k int) { defaultPool.MatMulATAddSub(dst, a, b, k) }

// TransposeInto sets dst = srcᵀ (dst must be src.Cols × src.Rows).
// Training sessions transpose the small weight matrices once per step so
// every backward ·Wᵀ product can run in cache-friendly row-streaming (axpy)
// form instead of a latency-bound dot product per output element.
func TransposeInto(dst, src *Mat) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("nn: TransposeInto %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

func matMulPrefixChunk(dst, a, b *Mat, ext []int, add bool, lo, hi int) {
	i := lo
	// 4-row register blocking (see matMulChunk).
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		if !add {
			for j := range d0 {
				d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
			}
		}
		for k, av0 := range a0 {
			av1, av2, av3 := a1[k], a2[k], a3[k]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			e := ext[k]
			if e == 0 {
				continue
			}
			brow := b.Row(k)[:e]
			e0 := d0[:e]
			e1 := d1[:e]
			e2 := d2[:e]
			e3 := d3[:e]
			for j, bv := range brow {
				e0[j] += av0 * bv
				e1[j] += av1 * bv
				e2[j] += av2 * bv
				e3[j] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		if !add {
			for j := range drow {
				drow[j] = 0
			}
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			e := ext[k]
			if e == 0 {
				continue
			}
			brow := b.Row(k)[:e]
			dsub := drow[:e]
			for j, bv := range brow {
				dsub[j] += av * bv
			}
		}
	}
}

// MatMulPrefix sets dst = a·b where row k of b is nonzero only on columns
// [0, ext[k]). This is the transposed dual of MatMulRowSuffix: a
// suffix-masked weight W becomes prefix-masked as Wᵀ, so backward products
// dY·Wᵀ run through this kernel over a pre-transposed weight. Per output
// element the accumulation order over k is ascending, exactly as the dot
// form, so the two are bit-identical; the axpy form additionally skips
// entire k rows where a's entry is zero (ReLU-sparse gradients).
func (p *Pool) MatMulPrefix(dst, a, b *Mat, ext []int) {
	p.matMulPrefix(dst, a, b, ext, false)
}

// MatMulPrefix runs on the default pool.
func MatMulPrefix(dst, a, b *Mat, ext []int) { defaultPool.MatMulPrefix(dst, a, b, ext) }

// MatMulPrefixAdd accumulates dst += a·b under the same prefix structure,
// fusing the residual-path addition of trunk backprop.
func (p *Pool) MatMulPrefixAdd(dst, a, b *Mat, ext []int) {
	p.matMulPrefix(dst, a, b, ext, true)
}

// MatMulPrefixAdd runs on the default pool.
func MatMulPrefixAdd(dst, a, b *Mat, ext []int) { defaultPool.MatMulPrefixAdd(dst, a, b, ext) }

func (p *Pool) matMulPrefix(dst, a, b *Mat, ext []int, add bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulPrefix dims %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	checkPrefix(ext, b.Rows, b.Cols, "MatMulPrefix")
	if p.inline(a.Rows) {
		matMulPrefixChunk(dst, a, b, ext, add, 0, a.Rows)
		return
	}
	p.parallelFor(a.Rows, func(lo, hi int) { matMulPrefixChunk(dst, a, b, ext, add, lo, hi) })
}

func matMulAddColsChunk(dst, a, b *Mat, m, lo, hi int) {
	i := lo
	// 4-row register blocking (see matMulChunk).
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		d0 := dst.Row(i)[:m]
		d1 := dst.Row(i + 1)[:m]
		d2 := dst.Row(i + 2)[:m]
		d3 := dst.Row(i + 3)[:m]
		for k, av0 := range a0 {
			av1, av2, av3 := a1[k], a2[k], a3[k]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b.Row(k)[:m]
			for j, bv := range brow {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		dsub := dst.Row(i)[:m]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)[:m]
			for j, bv := range brow {
				dsub[j] += av * bv
			}
		}
	}
}

// MatMulAddColsSeq accumulates dst[:, :m[i]] += a[i]·b[i][:, :m[i]] for
// i = 0, 1, … in that order, leaving columns ≥ m[i] untouched by term i:
// the same per-element sums as one single-term call per term, in one
// row-parallel dispatch instead of len(a). Training sessions use it with
// a[i] = column i's dProj, b[i] = its headWᵀ and m[i] = its hidden-prefix
// width, folding every head's gradient into dh in ascending column order
// after the heads have run concurrently.
func (p *Pool) MatMulAddColsSeq(dst *Mat, a, b []*Mat, m []int) {
	if len(b) != len(a) || len(m) != len(a) {
		panic(fmt.Sprintf("nn: MatMulAddColsSeq has %d, %d and %d terms", len(a), len(b), len(m)))
	}
	for i := range a {
		if a[i].Cols != b[i].Rows || dst.Rows != a[i].Rows || m[i] > dst.Cols || m[i] > b[i].Cols {
			panic(fmt.Sprintf("nn: MatMulAddColsSeq term %d dims %dx%d · %dx%d[:%d] -> %dx%d",
				i, a[i].Rows, a[i].Cols, b[i].Rows, b[i].Cols, m[i], dst.Rows, dst.Cols))
		}
	}
	if p.inline(dst.Rows) {
		for i := range a {
			matMulAddColsChunk(dst, a[i], b[i], m[i], 0, dst.Rows)
		}
		return
	}
	p.parallelFor(dst.Rows, func(lo, hi int) {
		for i := range a {
			matMulAddColsChunk(dst, a[i], b[i], m[i], lo, hi)
		}
	})
}

func addBiasReluChunk(x *Mat, bias []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x.Row(i)
		for j, b := range bias {
			v := row[j] + b
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

// AddBiasRelu fuses x = relu(x + bias) into one pass over x. Element order
// matches AddBias followed by ReluInPlace exactly.
func (p *Pool) AddBiasRelu(x *Mat, bias []float64) {
	if len(bias) != x.Cols {
		panic("nn: AddBiasRelu length mismatch")
	}
	if p.inline(x.Rows) {
		addBiasReluChunk(x, bias, 0, x.Rows)
		return
	}
	p.parallelFor(x.Rows, func(lo, hi int) { addBiasReluChunk(x, bias, lo, hi) })
}

// AddBiasRelu runs on the default pool.
func AddBiasRelu(x *Mat, bias []float64) { defaultPool.AddBiasRelu(x, bias) }

func addBiasResidualChunk(f *Mat, bias []float64, h *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		frow := f.Row(i)
		hrow := h.Row(i)
		for j, b := range bias {
			frow[j] = (frow[j] + b) + hrow[j]
		}
	}
}

// AddBiasResidual fuses f = (f + bias) + h into one pass, the epilogue of a
// residual block. Per-element operation order matches AddBias followed by
// AddInto, so results are bit-identical to the unfused pair.
func (p *Pool) AddBiasResidual(f *Mat, bias []float64, h *Mat) {
	if len(bias) != f.Cols || h.Rows != f.Rows || h.Cols != f.Cols {
		panic("nn: AddBiasResidual dimension mismatch")
	}
	if p.inline(f.Rows) {
		addBiasResidualChunk(f, bias, h, 0, f.Rows)
		return
	}
	p.parallelFor(f.Rows, func(lo, hi int) { addBiasResidualChunk(f, bias, h, lo, hi) })
}

// AddBiasResidual runs on the default pool.
func AddBiasResidual(f *Mat, bias []float64, h *Mat) { defaultPool.AddBiasResidual(f, bias, h) }
