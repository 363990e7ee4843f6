package nn

import (
	"math"
	"math/rand"
)

// Param is a trainable tensor: value, accumulated gradient, and Adam moment
// buffers.
type Param struct {
	Name string
	Val  *Mat
	Grad *Mat

	// Suffix, when non-nil, declares the parameter's masked sparsity
	// structure: row r is active only on columns [Suffix[r], Cols), and the
	// owner guarantees that values, gradients, and optimizer moments outside
	// that region are always exactly zero (the suffix-structured kernels
	// never write them). Adam.StepClipped skips the masked region entirely.
	Suffix []int

	m, v []float64
}

// NewParam allocates a zero-initialized parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Val:  NewMat(rows, cols),
		Grad: NewMat(rows, cols),
		m:    make([]float64, rows*cols),
		v:    make([]float64, rows*cols),
	}
}

// InitNormal fills the parameter with N(0, std²) noise.
func (p *Param) InitNormal(rng *rand.Rand, std float64) {
	for i := range p.Val.Data {
		p.Val.Data[i] = rng.NormFloat64() * std
	}
}

// InitHe applies He initialization for a layer with the given fan-in.
func (p *Param) InitHe(rng *rand.Rand, fanIn int) {
	p.InitNormal(rng, math.Sqrt(2.0/float64(fanIn)))
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumParams returns the number of scalar parameters.
func (p *Param) NumParams() int { return len(p.Val.Data) }

// ReluInPlace applies max(0, x) element-wise.
func ReluInPlace(x *Mat) {
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
}

// ReluBackward zeroes gradient entries where the forward *output* was zero.
// out must be the post-activation tensor saved from the forward pass.
func ReluBackward(dY, out *Mat) {
	if dY.Rows != out.Rows || dY.Cols != out.Cols {
		panic("nn: ReluBackward dimension mismatch")
	}
	for i, v := range out.Data {
		if v <= 0 {
			dY.Data[i] = 0
		}
	}
}

// softmaxRowsChunk exponentiates through float64 math.Exp: on the float64
// instantiation the conversions are identity (the path stays bit-identical
// to the pre-generic kernel). The float32 instantiation is unreachable in
// practice — SoftmaxRowsG dispatches float32 to softmaxRowsChunk32 and its
// polynomial exp32 (mat32.go) — but remains a correct reference.
func softmaxRowsChunk[T Elem](dst, logits *MatG[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		src := logits.Row(i)
		out := dst.Row(i)
		maxv := T(math.Inf(-1))
		for _, v := range src {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range src {
			e := math.Exp(float64(v - maxv))
			out[j] = T(e)
			sum += e
		}
		inv := T(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// SoftmaxRowsG writes the row-wise softmax of logits into dst (may alias).
func SoftmaxRowsG[T Elem](p *Pool, dst, logits *MatG[T]) {
	if dst.Rows != logits.Rows || dst.Cols != logits.Cols {
		panic("nn: SoftmaxRows dimension mismatch")
	}
	if d32, ok := any(dst).(*Mat32); ok {
		l32 := any(logits).(*Mat32)
		if p.inline(logits.Rows) {
			softmaxRowsChunk32(d32, l32, 0, logits.Rows)
			return
		}
		p.parallelFor(logits.Rows, func(lo, hi int) { softmaxRowsChunk32(d32, l32, lo, hi) })
		return
	}
	if p.inline(logits.Rows) {
		softmaxRowsChunk(dst, logits, 0, logits.Rows)
		return
	}
	p.parallelFor(logits.Rows, func(lo, hi int) { softmaxRowsChunk(dst, logits, lo, hi) })
}

// SoftmaxRows writes the row-wise softmax of logits into dst (may alias).
func (p *Pool) SoftmaxRows(dst, logits *Mat) { SoftmaxRowsG(p, dst, logits) }

// SoftmaxRows runs on the default pool.
func SoftmaxRows(dst, logits *Mat) { SoftmaxRowsG(defaultPool, dst, logits) }

// CrossEntropy computes the summed negative log-likelihood of targets under
// row-wise softmax(logits) and fills dLogits with the unscaled gradient
// (softmax - onehot). Rows whose target is negative are skipped entirely
// (zero loss, zero gradient) — used to mask padding and wildcard positions.
// The caller divides loss and gradients by the effective batch size.
//
// The loss is reduced through per-chunk partial sums (no per-row scratch),
// so the training loop's most-called kernel performs no allocation on the
// serial path and at most one tiny chunk-sum slice when parallelized.
func crossEntropyChunk(logits *Mat, targets []int32, dLogits *Mat, lo, hi int) float64 {
	partial := 0.0
	for i := lo; i < hi; i++ {
		dst := dLogits.Row(i)
		t := targets[i]
		if t < 0 {
			for j := range dst {
				dst[j] = 0
			}
			continue
		}
		src := logits.Row(i)
		maxv := math.Inf(-1)
		for _, v := range src {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range src {
			e := math.Exp(v - maxv)
			dst[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range dst {
			dst[j] *= inv
		}
		partial += -math.Log(math.Max(dst[t], 1e-300))
		dst[t] -= 1
	}
	return partial
}

func (p *Pool) CrossEntropy(logits *Mat, targets []int32, dLogits *Mat) float64 {
	if len(targets) != logits.Rows || dLogits.Rows != logits.Rows || dLogits.Cols != logits.Cols {
		panic("nn: CrossEntropy dimension mismatch")
	}
	if p.inline(logits.Rows) {
		return crossEntropyChunk(logits, targets, dLogits, 0, logits.Rows)
	}
	return p.parallelForSum(logits.Rows, func(lo, hi int) float64 {
		return crossEntropyChunk(logits, targets, dLogits, lo, hi)
	})
}

// CrossEntropy runs on the default pool.
func CrossEntropy(logits *Mat, targets []int32, dLogits *Mat) float64 {
	return defaultPool.CrossEntropy(logits, targets, dLogits)
}

// CrossEntropyInPlace is the head-backward epilogue of one training column,
// run on the calling goroutine. It overwrites logits with the scaled
// gradient scale·(softmax − onehot), accumulates that gradient's column
// sums into biasGrad, and returns the summed (unscaled) negative
// log-likelihood. Rows whose target is negative contribute zero loss and
// zero gradient. It is crossEntropyChunk with dLogits = logits (each row
// reads an element before writing it) followed by one fused scale and
// bias-gradient pass in BiasGradAdd's row order, so the results are
// bit-identical to CrossEntropy into a separate buffer, a scaling pass and
// BiasGradAdd, without the extra batch × domain buffer.
func CrossEntropyInPlace(logits *Mat, targets []int32, scale float64, biasGrad []float64) float64 {
	if len(targets) != logits.Rows || len(biasGrad) != logits.Cols {
		panic("nn: CrossEntropyInPlace dimension mismatch")
	}
	loss := crossEntropyChunk(logits, targets, logits, 0, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		for j, v := range row {
			v *= scale
			row[j] = v
			biasGrad[j] += v
		}
	}
	return loss
}

// Gather copies embedding rows table[ids[i]] into out rows at column offset
// outCol. Rows with negative ids are left untouched.
func Gather(out *Mat, outCol int, table *Mat, ids []int32) {
	d := table.Cols
	if outCol+d > out.Cols || len(ids) != out.Rows {
		panic("nn: Gather dimension mismatch")
	}
	for i, id := range ids {
		if id < 0 {
			continue
		}
		copy(out.Row(i)[outCol:outCol+d], table.Row(int(id)))
	}
}

// ScatterAddGrad accumulates dOut rows (at column offset outCol, width =
// tableGrad.Cols) into tableGrad rows selected by ids. Negative ids are
// skipped. The inverse of Gather for backpropagation.
func ScatterAddGrad(tableGrad *Mat, ids []int32, dOut *Mat, outCol int) {
	d := tableGrad.Cols
	if outCol+d > dOut.Cols || len(ids) != dOut.Rows {
		panic("nn: ScatterAddGrad dimension mismatch")
	}
	for i, id := range ids {
		if id < 0 {
			continue
		}
		dst := tableGrad.Row(int(id))
		src := dOut.Row(i)[outCol : outCol+d]
		for j, v := range src {
			dst[j] += v
		}
	}
}
