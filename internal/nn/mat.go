package nn

import "fmt"

// Elem constrains the floating-point element types the kernel set is
// instantiated over. Training always runs float64; serving may select
// float32 (see MatG and the *G kernel entry points).
type Elem interface {
	~float32 | ~float64
}

// MatG is a dense row-major matrix over element type T. All kernels are
// generic over Elem and dual-instantiated: the float64 instantiation is the
// training and default serving path, the float32 instantiation is the
// reduced-precision serving path. Go stencils each value-type instantiation
// into its own machine code, so neither width pays an abstraction cost.
type MatG[T Elem] struct {
	Rows, Cols int
	Data       []T
}

// Mat is a dense row-major float64 matrix — the element width used by
// training and the default serving path.
type Mat = MatG[float64]

// Mat32 is a dense row-major float32 matrix — the reduced-precision serving
// width. Checkpoints never store Mat32; it exists only as converted-at-load
// serving weights and session activations.
type Mat32 = MatG[float32]

// NewMat allocates a zeroed Rows×Cols float64 matrix.
func NewMat(rows, cols int) *Mat { return NewMatG[float64](rows, cols) }

// NewMat32 allocates a zeroed Rows×Cols float32 matrix.
func NewMat32(rows, cols int) *Mat32 { return NewMatG[float32](rows, cols) }

// NewMatG allocates a zeroed Rows×Cols matrix of element type T.
func NewMatG[T Elem](rows, cols int) *MatG[T] {
	return &MatG[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// At returns element (r, c).
func (m *MatG[T]) At(r, c int) T { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *MatG[T]) Set(r, c int, v T) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *MatG[T]) Row(r int) []T { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero clears all elements.
func (m *MatG[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies src into m (dimensions must match).
func (m *MatG[T]) CopyFrom(src *MatG[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("nn: CopyFrom %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	copy(m.Data, src.Data)
}

// Clone returns a deep copy.
func (m *MatG[T]) Clone() *MatG[T] {
	out := NewMatG[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Convert32 returns a freshly allocated float32 copy of a float64 matrix —
// the conversion-at-load step that builds serving weights. Each element is
// rounded once (round-to-nearest-even); see DESIGN.md §1.4 for the error
// model.
func Convert32(src *Mat) *Mat32 {
	out := NewMat32(src.Rows, src.Cols)
	for i, v := range src.Data {
		out.Data[i] = float32(v)
	}
	return out
}

func matMulChunk[T Elem](dst, a, b *MatG[T], lo, hi int) {
	i := lo
	// 4-row register blocking: each loaded row of b updates four output
	// rows, quartering b's memory traffic and giving four independent
	// accumulation streams. Per-element accumulation order (ascending k,
	// rows independent) matches the scalar loop exactly.
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for k, av0 := range a0 {
			av1, av2, av3 := a1[k], a2[k], a3[k]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue // ReLU activations are often sparse
			}
			brow := b.Row(k)
			e0 := d0[:len(brow)]
			e1 := d1[:len(brow)]
			e2 := d2[:len(brow)]
			e3 := d3[:len(brow)]
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
			brow := b.Row(k)
			dsub := drow[:len(brow)]
			for j, bv := range brow {
				dsub[j] += av * bv
			}
		}
	}
}

// MatMulG sets dst = a·b over any element width. dst must be a.Rows × b.Cols
// and distinct from a, b. Generic kernels take the pool as a parameter
// because Go methods cannot have type parameters.
func MatMulG[T Elem](p *Pool, dst, a, b *MatG[T]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMul dims %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if d32, ok := any(dst).(*Mat32); ok {
		a32, b32 := any(a).(*Mat32), any(b).(*Mat32)
		if p.inline(a.Rows) {
			matMulChunk32(d32, a32, b32, 0, a.Rows)
			return
		}
		p.parallelFor(a.Rows, func(lo, hi int) { matMulChunk32(d32, a32, b32, lo, hi) })
		return
	}
	if p.inline(a.Rows) {
		matMulChunk(dst, a, b, 0, a.Rows)
		return
	}
	p.parallelFor(a.Rows, func(lo, hi int) { matMulChunk(dst, a, b, lo, hi) })
}

// MatMul sets dst = a·b. dst must be a.Rows × b.Cols and distinct from a, b.
func (p *Pool) MatMul(dst, a, b *Mat) { MatMulG(p, dst, a, b) }

// MatMul sets dst = a·b on the default pool.
func MatMul(dst, a, b *Mat) { MatMulG(defaultPool, dst, a, b) }

func matMulSubChunk[T Elem](dst, a, b *MatG[T], k, m, lo, hi int) {
	i := lo
	// 4-row register blocking (see matMulChunk).
	for ; i+4 <= hi; i += 4 {
		a0 := a.Row(i)[:k]
		a1 := a.Row(i + 1)[:k]
		a2 := a.Row(i + 2)[:k]
		a3 := a.Row(i + 3)[:k]
		d0 := dst.Row(i)[:m]
		d1 := dst.Row(i + 1)[:m]
		d2 := dst.Row(i + 2)[:m]
		d3 := dst.Row(i + 3)[:m]
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for j, av0 := range a0 {
			av1, av2, av3 := a1[j], a2[j], a3[j]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b.Row(j)[:m]
			for c, bv := range brow {
				d0[c] += av0 * bv
				d1[c] += av1 * bv
				d2[c] += av2 * bv
				d3[c] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)[:k]
		drow := dst.Row(i)[:m]
		for j := range drow {
			drow[j] = 0
		}
		for j, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(j)[:m]
			for c, bv := range brow {
				drow[c] += av * bv
			}
		}
	}
}

// MatMulSubG sets the leading m columns of dst to a[:, :k]·b[:k, :m],
// leaving columns ≥ m of dst untouched. All matrices keep their full
// row-major layout; only row slices are restricted, so no copies are made.
// Used by inference sessions to run MADE trunk passes over the contiguous
// "degree ≤ col" prefix — entries outside the prefix multiply masked-zero
// weights and are skipped instead of computed — and by training sessions to
// project head inputs without materializing a masked hidden copy.
func MatMulSubG[T Elem](p *Pool, dst, a, b *MatG[T], k, m int) {
	if k > a.Cols || k > b.Rows || m > b.Cols || m > dst.Cols || dst.Rows != a.Rows {
		panic(fmt.Sprintf("nn: MatMulSub dims %dx%d[:%d] · %dx%d[:%d,:%d] -> %dx%d",
			a.Rows, a.Cols, k, b.Rows, b.Cols, k, m, dst.Rows, dst.Cols))
	}
	if d32, ok := any(dst).(*Mat32); ok {
		a32, b32 := any(a).(*Mat32), any(b).(*Mat32)
		if p.inline(a.Rows) {
			matMulSubChunk32(d32, a32, b32, k, m, 0, a.Rows)
			return
		}
		p.parallelFor(a.Rows, func(lo, hi int) { matMulSubChunk32(d32, a32, b32, k, m, lo, hi) })
		return
	}
	if p.inline(a.Rows) {
		matMulSubChunk(dst, a, b, k, m, 0, a.Rows)
		return
	}
	p.parallelFor(a.Rows, func(lo, hi int) { matMulSubChunk(dst, a, b, k, m, lo, hi) })
}

// MatMulSub runs the prefix-restricted product (see MatMulSubG).
func (p *Pool) MatMulSub(dst, a, b *Mat, k, m int) { MatMulSubG(p, dst, a, b, k, m) }

// MatMulSub runs the prefix-restricted product on the default pool.
func MatMulSub(dst, a, b *Mat, k, m int) { MatMulSubG(defaultPool, dst, a, b, k, m) }

func matMulColsChunk[T Elem](dst, a, b *MatG[T], k, cl, ch, lo, hi int) {
	w := ch - cl
	i := lo
	// 4-row register blocking (see matMulChunk).
	for ; i+4 <= hi; i += 4 {
		a0 := a.Row(i)[:k]
		a1 := a.Row(i + 1)[:k]
		a2 := a.Row(i + 2)[:k]
		a3 := a.Row(i + 3)[:k]
		d0 := dst.Row(i)[cl:][:w]
		d1 := dst.Row(i + 1)[cl:][:w]
		d2 := dst.Row(i + 2)[cl:][:w]
		d3 := dst.Row(i + 3)[cl:][:w]
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for j, av0 := range a0 {
			av1, av2, av3 := a1[j], a2[j], a3[j]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b.Row(j)[cl:][:w]
			for c, bv := range brow {
				d0[c] += av0 * bv
				d1[c] += av1 * bv
				d2[c] += av2 * bv
				d3[c] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)[:k]
		drow := dst.Row(i)[cl:][:w]
		for j := range drow {
			drow[j] = 0
		}
		for j, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(j)[cl:][:w]
			for c, bv := range brow {
				drow[c] += av * bv
			}
		}
	}
}

// MatMulColsG sets the column range [cl, ch) of dst to a[:, :k]·b[:k, cl:ch),
// leaving every other column of dst untouched. Per output element the
// accumulation runs over ascending k exactly as MatMulSubG, so the computed
// columns are bit-identical to a full MatMulSubG(p, dst, a, b, k, ch) pass.
// Inference sessions use it to extend a cached trunk by only the hidden
// units newly unmasked since the previous sampling step.
func MatMulColsG[T Elem](p *Pool, dst, a, b *MatG[T], k, cl, ch int) {
	if k > a.Cols || k > b.Rows || cl < 0 || cl > ch || ch > b.Cols || ch > dst.Cols || dst.Rows != a.Rows {
		panic(fmt.Sprintf("nn: MatMulCols dims %dx%d[:%d] · %dx%d[%d:%d] -> %dx%d",
			a.Rows, a.Cols, k, b.Rows, b.Cols, cl, ch, dst.Rows, dst.Cols))
	}
	if cl == ch {
		return
	}
	if d32, ok := any(dst).(*Mat32); ok {
		a32, b32 := any(a).(*Mat32), any(b).(*Mat32)
		if p.inline(a.Rows) {
			matMulColsChunk32(d32, a32, b32, k, cl, ch, 0, a.Rows)
			return
		}
		p.parallelFor(a.Rows, func(lo, hi int) { matMulColsChunk32(d32, a32, b32, k, cl, ch, lo, hi) })
		return
	}
	if p.inline(a.Rows) {
		matMulColsChunk(dst, a, b, k, cl, ch, 0, a.Rows)
		return
	}
	p.parallelFor(a.Rows, func(lo, hi int) { matMulColsChunk(dst, a, b, k, cl, ch, lo, hi) })
}

// MatMulCols runs the column-range product (see MatMulColsG).
func (p *Pool) MatMulCols(dst, a, b *Mat, k, cl, ch int) { MatMulColsG(p, dst, a, b, k, cl, ch) }

// MatMulCols runs the column-range product on the default pool.
func MatMulCols(dst, a, b *Mat, k, cl, ch int) { MatMulColsG(defaultPool, dst, a, b, k, cl, ch) }

// AddBiasSub adds bias[:m] to the leading m columns of every row of x.
func AddBiasSub[T Elem](x *MatG[T], bias []T, m int) {
	if m > x.Cols || m > len(bias) {
		panic("nn: AddBiasSub length mismatch")
	}
	b := bias[:m]
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)[:m]
		for j, v := range b {
			row[j] += v
		}
	}
}

// AddBiasReluCols applies dst[r, cl:ch) = max(0, dst[r, cl:ch) + bias[cl:ch))
// over the given rows — the fused bias+ReLU epilogue of a trunk extension.
// Fusing keeps the freshly computed column range in cache for exactly one
// extra pass instead of two.
func AddBiasReluCols[T Elem](dst *MatG[T], bias []T, rows, cl, ch int) {
	b := bias[cl:ch]
	for r := 0; r < rows; r++ {
		row := dst.Row(r)[cl:ch]
		for j, v := range b {
			s := row[j] + v
			if s < 0 {
				s = 0
			}
			row[j] = s
		}
	}
}

// AddBiasResidualCols applies dst[r, cl:ch) += bias[cl:ch) + res[r, cl:ch)
// over the given rows — the fused bias+residual epilogue of a ResMADE block.
func AddBiasResidualCols[T Elem](dst, res *MatG[T], bias []T, rows, cl, ch int) {
	b := bias[cl:ch]
	for r := 0; r < rows; r++ {
		row := dst.Row(r)[cl:ch]
		rrow := res.Row(r)[cl:ch]
		for j, v := range b {
			// Left-to-right (row + bias) + residual: the exact accumulation
			// order of the pre-generic session loop, preserving bit-identical
			// float64 results.
			row[j] = row[j] + v + rrow[j]
		}
	}
}

func matMulATAddChunk(dst, a, b *Mat, lo, hi int) {
	k := 0
	// 4-batch-row blocking: four outer products accumulate per pass over
	// the gradient, as sequential adds (ascending-k order preserved),
	// quartering gradient-matrix memory traffic.
	for ; k+4 <= a.Rows; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		for i := lo; i < hi; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			drow := dst.Row(i)[:len(b0)]
			c1 := b1[:len(drow)]
			c2 := b2[:len(drow)]
			c3 := b3[:len(drow)]
			for j, bv := range b0 {
				drow[j] += av0 * bv
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
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulATAdd accumulates dst += aᵀ·b. dst must be a.Cols × b.Cols. Used for
// weight gradients (dW += Xᵀ·dY), which accumulate across calls. Training
// runs float64 only, so this kernel has no generic variant.
func (p *Pool) MatMulATAdd(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulATAdd dims %dx%dᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if p.inline(a.Cols) {
		matMulATAddChunk(dst, a, b, 0, a.Cols)
		return
	}
	p.parallelFor(a.Cols, func(lo, hi int) { matMulATAddChunk(dst, a, b, lo, hi) })
}

// MatMulATAdd accumulates dst += aᵀ·b on the default pool.
func MatMulATAdd(dst, a, b *Mat) { defaultPool.MatMulATAdd(dst, a, b) }

// matMulBTChunk computes eight output columns per pass over a row of a,
// one accumulator each: the accumulators share every load of a and hide
// the add latency a single running sum would serialize on (training heads
// run dProj = dLogits·emb through it, with a batch × domain and only
// EmbedDim rows of b). Every element still sums over ascending k from
// zero, exactly as one column at a time would.
func matMulBTChunk[T Elem](dst, a, b *MatG[T], lo, hi int) {
	n := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+8 <= b.Rows; j += 8 {
			b0, b1, b2, b3 := b.Row(j)[:n], b.Row(j + 1)[:n], b.Row(j + 2)[:n], b.Row(j + 3)[:n]
			b4, b5, b6, b7 := b.Row(j + 4)[:n], b.Row(j + 5)[:n], b.Row(j + 6)[:n], b.Row(j + 7)[:n]
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
				s4 += av * b4[k]
				s5 += av * b5[k]
				s6 += av * b6[k]
				s7 += av * b7[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			drow[j+4], drow[j+5], drow[j+6], drow[j+7] = s4, s5, s6, s7
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)[:n]
			var sum T
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// MatMulBTG sets dst = a·bᵀ. dst must be a.Rows × b.Rows. Used for input
// gradients (dX = dY·Wᵀ) and for projecting session embeddings onto output
// logits when no pre-transposed weight is available.
func MatMulBTG[T Elem](p *Pool, dst, a, b *MatG[T]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulBT dims %dx%d · %dx%dᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if d32, ok := any(dst).(*Mat32); ok {
		a32, b32 := any(a).(*Mat32), any(b).(*Mat32)
		if p.inline(a.Rows) {
			matMulBTChunk32(d32, a32, b32, 0, a.Rows)
			return
		}
		p.parallelFor(a.Rows, func(lo, hi int) { matMulBTChunk32(d32, a32, b32, lo, hi) })
		return
	}
	if p.inline(a.Rows) {
		matMulBTChunk(dst, a, b, 0, a.Rows)
		return
	}
	p.parallelFor(a.Rows, func(lo, hi int) { matMulBTChunk(dst, a, b, lo, hi) })
}

// MatMulBT sets dst = a·bᵀ (see MatMulBTG).
func (p *Pool) MatMulBT(dst, a, b *Mat) { MatMulBTG(p, dst, a, b) }

// MatMulBT sets dst = a·bᵀ on the default pool.
func MatMulBT(dst, a, b *Mat) { MatMulBTG(defaultPool, dst, a, b) }

func addBiasChunk[T Elem](x *MatG[T], bias []T, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x.Row(i)
		for j, b := range bias {
			row[j] += b
		}
	}
}

// AddBiasG adds bias (length x.Cols) to every row of x in place.
func AddBiasG[T Elem](p *Pool, x *MatG[T], bias []T) {
	if len(bias) != x.Cols {
		panic("nn: AddBias length mismatch")
	}
	if p.inline(x.Rows) {
		addBiasChunk(x, bias, 0, x.Rows)
		return
	}
	p.parallelFor(x.Rows, func(lo, hi int) { addBiasChunk(x, bias, lo, hi) })
}

// AddBias adds bias (length x.Cols) to every row of x in place.
func (p *Pool) AddBias(x *Mat, bias []float64) { AddBiasG(p, x, bias) }

// AddBias adds bias to every row of x on the default pool.
func AddBias(x *Mat, bias []float64) { AddBiasG(defaultPool, x, bias) }

// BiasGradAdd accumulates column sums of dY into grad (the bias gradient).
func BiasGradAdd(grad []float64, dY *Mat) {
	if len(grad) != dY.Cols {
		panic("nn: BiasGradAdd length mismatch")
	}
	for i := 0; i < dY.Rows; i++ {
		row := dY.Row(i)
		for j, v := range row {
			grad[j] += v
		}
	}
}

// AddInto sets dst += src element-wise.
func AddInto(dst, src *Mat) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("nn: AddInto dimension mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// Hadamard sets dst = a∘b element-wise. dst may alias a or b.
func Hadamard(dst, a, b *Mat) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("nn: Hadamard dimension mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}
