package made

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"neurocard/internal/nn"
)

// MaskToken marks a wildcard position in an input token vector: the model
// substitutes the column's learned MASK embedding.
const MaskToken int32 = -1

// Config sets the model architecture and optimizer.
type Config struct {
	EmbedDim int     // d_emb: per-column embedding width
	Hidden   int     // d_ff: width of the masked MLP trunk
	Blocks   int     // number of residual blocks (each two masked linears)
	LR       float64 // Adam learning rate
	ClipNorm float64 // global gradient-norm clip; 0 disables
	Seed     int64   // weight init seed
}

// DefaultConfig mirrors the paper's small JOB-light configuration scaled to
// CPU training: d_ff 128, d_emb 16.
func DefaultConfig() Config {
	return Config{EmbedDim: 16, Hidden: 128, Blocks: 2, LR: 2e-3, ClipNorm: 5, Seed: 1}
}

type resBlock struct {
	w1, b1, w2, b2 *nn.Param
}

// Model is a trainable ResMADE over n discrete columns with domain sizes
// doms[i]. Token values for column i are 0..doms[i]-1, or MaskToken.
type Model struct {
	cfg  Config
	doms []int
	n    int

	embeds []*nn.Param // (doms[i]+1) × EmbedDim; last row = MASK embedding
	inW    *nn.Param   // inDim × Hidden, pre-masked
	inB    *nn.Param   // 1 × Hidden
	blocks []*resBlock // trunk; all hidden-hidden weights share hhMask
	headW  []*nn.Param // per column: Hidden × EmbedDim (input rows masked by headKeep)
	headB  []*nn.Param // per column: 1 × doms[i]

	inMask      *nn.Mat     // inDim × Hidden autoregressive mask
	hhMask      *nn.Mat     // Hidden × Hidden
	headKeep    [][]float64 // per column: 0/1 over hidden units (m(k) ≤ i)
	prefixWidth []int       // per column: #hidden units with degree ≤ i (a prefix: degrees are sorted)

	// Suffix extent tables for the prefix-structured training kernels: with
	// sorted degrees, row j of a masked weight is nonzero exactly on columns
	// [start[j], Hidden). inStart covers inW rows, hhStart covers every
	// hidden-hidden weight's rows. The ExtT tables are the transposed duals
	// (the start tables are non-decreasing, so each transposed row's nonzero
	// columns are the prefix [0, ext)): hhExtT[k] / inExtT[k] bound the
	// active prefix of row k of Wᵀ for hidden-hidden weights and inW.
	inStart []int
	hhStart []int
	inExtT  []int
	hhExtT  []int
	maxDom  int

	offsets []int // column block offsets within the concatenated input
	inDim   int

	params []*nn.Param
	opt    *nn.Adam
	rng    *rand.Rand

	embViews     []*nn.Mat // per column: cached non-MASK rows view of embeds[i].Val
	embGradViews []*nn.Mat // per column: cached non-MASK rows view of embeds[i].Grad

	samplesSeen int // tuples consumed by TrainStep, for reporting
	version     uint64

	// w32 caches the shared float32 serving snapshot (see weights32): built
	// on first float32 session construction, refreshed when version moves.
	w32 atomic.Pointer[servingWeights[float32]]
	// w64 caches the float64 serving snapshot of AVX hosts (see weights64).
	w64 atomic.Pointer[servingWeights[float64]]
}

// New builds a randomly initialized model for the given column domains.
func New(cfg Config, doms []int) (*Model, error) {
	if len(doms) == 0 {
		return nil, fmt.Errorf("made: no columns")
	}
	for i, d := range doms {
		if d < 1 {
			return nil, fmt.Errorf("made: column %d has domain size %d", i, d)
		}
	}
	if cfg.EmbedDim < 1 || cfg.Hidden < 1 || cfg.Blocks < 0 {
		return nil, fmt.Errorf("made: invalid config %+v", cfg)
	}
	m := &Model{
		cfg:  cfg,
		doms: append([]int(nil), doms...),
		n:    len(doms),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	m.offsets = make([]int, m.n)
	for i := range doms {
		m.offsets[i] = m.inDim
		m.inDim += cfg.EmbedDim
	}
	m.buildMasks()

	// Parameters.
	for i, d := range doms {
		e := nn.NewParam(fmt.Sprintf("emb%d", i), d+1, cfg.EmbedDim)
		e.InitNormal(m.rng, 0.1)
		m.embeds = append(m.embeds, e)
	}
	m.inW = nn.NewParam("inW", m.inDim, cfg.Hidden)
	m.inW.InitHe(m.rng, m.inDim)
	nn.Hadamard(m.inW.Val, m.inW.Val, m.inMask)
	m.inW.Suffix = m.inStart
	m.inB = nn.NewParam("inB", 1, cfg.Hidden)
	for b := 0; b < cfg.Blocks; b++ {
		blk := &resBlock{
			w1: nn.NewParam(fmt.Sprintf("blk%d.w1", b), cfg.Hidden, cfg.Hidden),
			b1: nn.NewParam(fmt.Sprintf("blk%d.b1", b), 1, cfg.Hidden),
			w2: nn.NewParam(fmt.Sprintf("blk%d.w2", b), cfg.Hidden, cfg.Hidden),
			b2: nn.NewParam(fmt.Sprintf("blk%d.b2", b), 1, cfg.Hidden),
		}
		blk.w1.InitHe(m.rng, cfg.Hidden)
		blk.w2.InitNormal(m.rng, 0.01) // near-identity residual at init
		nn.Hadamard(blk.w1.Val, blk.w1.Val, m.hhMask)
		nn.Hadamard(blk.w2.Val, blk.w2.Val, m.hhMask)
		blk.w1.Suffix = m.hhStart
		blk.w2.Suffix = m.hhStart
		m.blocks = append(m.blocks, blk)
	}
	for i, d := range doms {
		hw := nn.NewParam(fmt.Sprintf("head%d.w", i), cfg.Hidden, cfg.EmbedDim)
		hw.InitHe(m.rng, cfg.Hidden)
		m.headW = append(m.headW, hw)
		hb := nn.NewParam(fmt.Sprintf("head%d.b", i), 1, d)
		m.headB = append(m.headB, hb)
	}

	m.params = append(m.params, m.embeds...)
	m.params = append(m.params, m.inW, m.inB)
	for _, blk := range m.blocks {
		m.params = append(m.params, blk.w1, blk.b1, blk.w2, blk.b2)
	}
	m.params = append(m.params, m.headW...)
	m.params = append(m.params, m.headB...)
	m.opt = nn.NewAdam(cfg.LR)
	for i, d := range doms {
		e := m.embeds[i].Val
		m.embViews = append(m.embViews, &nn.Mat{Rows: d, Cols: e.Cols, Data: e.Data[:d*e.Cols]})
		g := m.embeds[i].Grad
		m.embGradViews = append(m.embGradViews, &nn.Mat{Rows: d, Cols: g.Cols, Data: g.Data[:d*g.Cols]})
		if d > m.maxDom {
			m.maxDom = d
		}
	}
	return m, nil
}

// buildMasks assigns MADE degrees and constructs the autoregressive masks:
// input block i has degree i+1; hidden units take degrees 1..n-1 in sorted,
// balanced order; hidden-to-hidden connects non-decreasing degrees; the head
// for column i reads only hidden units with degree ≤ i.
//
// Sorting the degrees (instead of Naru's cyclic assignment) is an exact
// reparameterization — each degree gets the same unit count, only the unit
// order changes — but it makes every "degree ≤ i" set a contiguous prefix.
// InferSession exploits that: a trunk pass serving the head of column i
// computes only the leading prefixWidth[i] units of every hidden layer,
// since all masked weights outside that block are zero.
func (m *Model) buildMasks() {
	h := m.cfg.Hidden
	maxDeg := m.n - 1
	if maxDeg < 1 {
		maxDeg = 1
	}
	degrees := make([]int, h)
	for k := range degrees {
		degrees[k] = k*maxDeg/h + 1
	}
	m.prefixWidth = make([]int, m.n)
	for i := 0; i < m.n; i++ {
		w := 0
		for w < h && degrees[w] <= i {
			w++
		}
		m.prefixWidth[i] = w
	}
	m.inMask = nn.NewMat(m.inDim, h)
	for i := 0; i < m.n; i++ {
		deg := i + 1
		for e := 0; e < m.cfg.EmbedDim; e++ {
			row := m.inMask.Row(m.offsets[i] + e)
			for k := 0; k < h; k++ {
				if degrees[k] >= deg {
					row[k] = 1
				}
			}
		}
	}
	m.hhMask = nn.NewMat(h, h)
	for j := 0; j < h; j++ {
		row := m.hhMask.Row(j)
		for k := 0; k < h; k++ {
			if degrees[k] >= degrees[j] {
				row[k] = 1
			}
		}
	}
	m.headKeep = make([][]float64, m.n)
	for i := 0; i < m.n; i++ {
		keep := make([]float64, h)
		for k := 0; k < h; k++ {
			if degrees[k] <= i {
				keep[k] = 1
			}
		}
		m.headKeep[i] = keep
	}
	// Suffix extent tables (sorted degrees ⇒ every masked row's nonzero
	// columns are a contiguous suffix). hhStart[j] is the first unit with
	// degree ≥ degrees[j]; inStart for input block i is the first unit with
	// degree ≥ i+1, which is exactly prefixWidth[i].
	m.hhStart = make([]int, h)
	for j := 0; j < h; j++ {
		s := j
		for s > 0 && degrees[s-1] >= degrees[j] {
			s--
		}
		m.hhStart[j] = s
	}
	m.inStart = make([]int, m.inDim)
	for i := 0; i < m.n; i++ {
		for e := 0; e < m.cfg.EmbedDim; e++ {
			m.inStart[m.offsets[i]+e] = m.prefixWidth[i]
		}
	}
	m.hhExtT = make([]int, h)
	for k := 0; k < h; k++ {
		ext := 0
		for ext < h && m.hhStart[ext] <= k {
			ext++
		}
		m.hhExtT[k] = ext
	}
	m.inExtT = make([]int, h)
	for k := 0; k < h; k++ {
		ext := 0
		for ext < m.inDim && m.inStart[ext] <= k {
			ext++
		}
		m.inExtT[k] = ext
	}
}

// NumCols returns the number of model columns.
func (m *Model) NumCols() int { return m.n }

// DomainSize returns the token domain size of column i.
func (m *Model) DomainSize(i int) int { return m.doms[i] }

// NumParams counts scalar parameters.
func (m *Model) NumParams() int {
	total := 0
	for _, p := range m.params {
		total += p.NumParams()
	}
	return total
}

// Bytes reports the model size at float32 weights, the paper's size
// accounting.
func (m *Model) Bytes() int { return m.NumParams() * 4 }

// SamplesSeen returns the number of training tuples consumed so far.
func (m *Model) SamplesSeen() int { return m.samplesSeen }

// embedInput builds the concatenated embedding matrix for a token batch.
// MaskToken (or any negative token) selects the column's MASK row.
func (m *Model) embedInput(tokens [][]int32, x *nn.Mat) {
	b := len(tokens)
	ids := make([]int32, b)
	for i := 0; i < m.n; i++ {
		mask := int32(m.doms[i]) // MASK row index
		for r := 0; r < b; r++ {
			t := tokens[r][i]
			if t < 0 {
				t = mask
			}
			ids[r] = t
		}
		nn.Gather(x, m.offsets[i], m.embeds[i].Val, ids)
	}
}

// trunk runs the masked MLP, returning the final hidden state and the
// intermediate activations needed for backprop.
type trunkState struct {
	x   *nn.Mat   // embedded input
	h0  *nn.Mat   // post input layer + ReLU
	mid []*nn.Mat // per block: post-ReLU inner activation
	hs  []*nn.Mat // per block: block output (h after residual add)
}

func (m *Model) forwardTrunk(tokens [][]int32) *trunkState {
	b := len(tokens)
	st := &trunkState{x: nn.NewMat(b, m.inDim)}
	m.embedInput(tokens, st.x)
	st.h0 = nn.NewMat(b, m.cfg.Hidden)
	nn.MatMul(st.h0, st.x, m.inW.Val)
	nn.AddBias(st.h0, m.inB.Val.Row(0))
	nn.ReluInPlace(st.h0)
	h := st.h0
	for _, blk := range m.blocks {
		a := nn.NewMat(b, m.cfg.Hidden)
		nn.MatMul(a, h, blk.w1.Val)
		nn.AddBias(a, blk.b1.Val.Row(0))
		nn.ReluInPlace(a)
		f := nn.NewMat(b, m.cfg.Hidden)
		nn.MatMul(f, a, blk.w2.Val)
		nn.AddBias(f, blk.b2.Val.Row(0))
		nn.AddInto(f, h) // residual
		st.mid = append(st.mid, a)
		st.hs = append(st.hs, f)
		h = f
	}
	return st
}

func (st *trunkState) top() *nn.Mat {
	if len(st.hs) > 0 {
		return st.hs[len(st.hs)-1]
	}
	return st.h0
}

// headLogits computes the logits of column i from the trunk output:
// mask hidden units by degree, project to embedding space, and dot with the
// (tied) embedding matrix.
func (m *Model) headLogits(h *nn.Mat, i int, hm, proj, logits *nn.Mat) {
	keep := m.headKeep[i]
	for r := 0; r < h.Rows; r++ {
		src := h.Row(r)
		dst := hm.Row(r)
		for k, kv := range keep {
			dst[k] = src[k] * kv
		}
	}
	nn.MatMul(proj, hm, m.headW[i].Val)
	embView := m.embedRowsView(i)
	nn.MatMulBT(logits, proj, embView)
	nn.AddBias(logits, m.headB[i].Val.Row(0))
}

// embedRowsView returns the first doms[i] rows of embedding i (excluding the
// MASK row) as a view sharing storage, used for tied output projections. The
// views are built once in New and alias the parameter storage, so they track
// training updates without per-call allocation.
func (m *Model) embedRowsView(i int) *nn.Mat { return m.embViews[i] }

// addEmbProj accumulates sign·(emb_c[id] · inW[block c]) into dst (length
// Hidden): the contribution of column c holding token id to the input-layer
// preactivation. inW is pre-masked, so the autoregressive structure is
// preserved. Cost is EmbedDim×Hidden — independent of the column count,
// which is what makes InferSession's incremental updates cheap.
func (m *Model) addEmbProj(dst []float64, c int, id int32, sign float64) {
	m.addEmbProjFrom(dst, c, id, sign, 0)
}

// addEmbProjFrom is addEmbProj restricted to hidden units [from, Hidden).
// Column c's masked inW rows are zero below prefixWidth[c], so callers that
// pass from = prefixWidth[c] skip the structurally-zero prefix without
// changing any computed value — the inference session's SetToken path, where
// late (indicator/fanout) columns touch only a short suffix.
func (m *Model) addEmbProjFrom(dst []float64, c int, id int32, sign float64, from int) {
	emb := m.embeds[c].Val.Row(int(id))
	base := m.offsets[c]
	sub := dst[from:]
	for j, ev := range emb {
		v := ev * sign
		if v == 0 {
			continue
		}
		wrow := m.inW.Val.Row(base + j)[from:]
		for k, wv := range wrow {
			sub[k] += v * wv
		}
	}
}

// Version counts weight updates; inference sessions use it to invalidate
// cached weight-derived state after training.
func (m *Model) Version() uint64 { return m.version }

// embedGradView returns the first doms[i] rows of embedding gradient i
// (excluding the MASK row); like embedRowsView, the views are built once and
// alias the parameter storage.
func (m *Model) embedGradView(i int) *nn.Mat { return m.embGradViews[i] }

// Conditional computes p(X_col = · | x_<col>) for every row of tokens,
// writing row-normalized probabilities into out (len(tokens) × doms[col]).
// Token values at positions ≥ col are ignored by construction of the
// autoregressive masks; wildcard positions < col must carry MaskToken.
func (m *Model) Conditional(tokens [][]int32, col int, out *nn.Mat) {
	if col < 0 || col >= m.n {
		panic(fmt.Sprintf("made: Conditional column %d of %d", col, m.n))
	}
	b := len(tokens)
	if out.Rows != b || out.Cols != m.doms[col] {
		panic("made: Conditional output dimension mismatch")
	}
	st := m.forwardTrunk(tokens)
	h := st.top()
	hm := nn.NewMat(b, m.cfg.Hidden)
	proj := nn.NewMat(b, m.cfg.EmbedDim)
	m.headLogits(h, col, hm, proj, out)
	nn.SoftmaxRows(out, out)
}

// TrainStep performs one maximum-likelihood gradient step on a batch of
// token tuples. wildcardProb is the per-tuple probability of applying
// wildcard-skipping masking (a uniform number of random positions replaced
// by MASK at the input only). It returns the mean negative log-likelihood in
// nats per tuple (loss over all columns).
func (m *Model) TrainStep(batch [][]int32, wildcardProb float64) float64 {
	b := len(batch)
	if b == 0 {
		return 0
	}
	// Build masked inputs; targets always keep the true tokens.
	inputs := make([][]int32, b)
	for r := range batch {
		if len(batch[r]) != m.n {
			panic(fmt.Sprintf("made: tuple has %d columns, want %d", len(batch[r]), m.n))
		}
		if wildcardProb > 0 && m.rng.Float64() < wildcardProb {
			row := make([]int32, m.n)
			copy(row, batch[r])
			k := m.rng.Intn(m.n + 1)
			for _, c := range m.rng.Perm(m.n)[:k] {
				row[c] = MaskToken
			}
			inputs[r] = row
		} else {
			inputs[r] = batch[r]
		}
	}

	loss := m.backward(inputs, batch)
	if m.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(m.params, m.cfg.ClipNorm)
	}
	m.opt.Step(m.params)
	m.samplesSeen += b
	m.version++
	return loss
}

// NLL returns the mean negative log-likelihood (nats per tuple) of a batch
// without updating the model. Intended for monitoring and tests. Head
// scratch (projection, logits, gradient sink) is allocated once and resized
// per column instead of reallocated n times, and the head projection runs
// over the column's hidden prefix directly — no masked hidden copy.
func (m *Model) NLL(batch [][]int32) float64 {
	b := len(batch)
	if b == 0 {
		return 0
	}
	st := m.forwardTrunk(batch)
	h := st.top()
	targets := make([]int32, b)
	proj := nn.NewMat(b, m.cfg.EmbedDim)
	logitsBuf := newSessMat(b, m.maxDom)
	sinkBuf := newSessMat(b, m.maxDom)
	total := 0.0
	for i := 0; i < m.n; i++ {
		nn.MatMulSub(proj, h, m.headW[i].Val, m.prefixWidth[i], m.cfg.EmbedDim)
		logits := logitsBuf.viewShape(b, m.doms[i])
		nn.MatMulBT(logits, proj, m.embedRowsView(i))
		nn.AddBias(logits, m.headB[i].Val.Row(0))
		for r := range batch {
			targets[r] = batch[r][i]
		}
		total += nn.CrossEntropy(logits, targets, sinkBuf.viewShape(b, m.doms[i]))
	}
	return total / float64(b)
}

// backward runs forward + backprop for inputs (possibly wildcard-masked)
// against targets, accumulating parameter gradients, and returns the mean
// NLL. It does not update parameters.
func (m *Model) backward(inputs, targets [][]int32) float64 {
	b := len(inputs)
	st := m.forwardTrunk(inputs)
	h := st.top()
	dh := nn.NewMat(b, m.cfg.Hidden)
	hm := nn.NewMat(b, m.cfg.Hidden)
	tgt := make([]int32, b)
	totalLoss := 0.0

	// Heads: forward + backward per column, accumulating dh.
	for i := 0; i < m.n; i++ {
		proj := nn.NewMat(b, m.cfg.EmbedDim)
		logits := nn.NewMat(b, m.doms[i])
		m.headLogits(h, i, hm, proj, logits)
		for r := range targets {
			tgt[r] = targets[r][i]
		}
		dLogits := nn.NewMat(b, m.doms[i])
		totalLoss += nn.CrossEntropy(logits, tgt, dLogits)
		scale := 1.0 / float64(b)
		for j := range dLogits.Data {
			dLogits.Data[j] *= scale
		}
		// logits = proj·embᵀ + bias
		nn.BiasGradAdd(m.headB[i].Grad.Row(0), dLogits)
		embView := m.embedRowsView(i)
		dProj := nn.NewMat(b, m.cfg.EmbedDim)
		nn.MatMul(dProj, dLogits, embView)
		nn.MatMulATAdd(m.embedGradView(i), dLogits, proj)
		// proj = (h∘keep)·headW; hm still holds h∘keep from headLogits.
		keep := m.headKeep[i]
		nn.MatMulATAdd(m.headW[i].Grad, hm, dProj)
		dhPart := nn.NewMat(b, m.cfg.Hidden)
		nn.MatMulBT(dhPart, dProj, m.headW[i].Val)
		for r := 0; r < b; r++ {
			dstRow := dh.Row(r)
			srcRow := dhPart.Row(r)
			for k, kv := range keep {
				dstRow[k] += srcRow[k] * kv
			}
		}
	}

	// Trunk backward through residual blocks.
	for bi := len(m.blocks) - 1; bi >= 0; bi-- {
		blk := m.blocks[bi]
		var hin *nn.Mat
		if bi == 0 {
			hin = st.h0
		} else {
			hin = st.hs[bi-1]
		}
		a := st.mid[bi]
		// f = a·W2 + b2; out = hin + f  ⇒ df = dh.
		nn.BiasGradAdd(blk.b2.Grad.Row(0), dh)
		nn.MatMulATAdd(blk.w2.Grad, a, dh)
		da := nn.NewMat(b, m.cfg.Hidden)
		nn.MatMulBT(da, dh, blk.w2.Val)
		nn.ReluBackward(da, a)
		nn.BiasGradAdd(blk.b1.Grad.Row(0), da)
		nn.MatMulATAdd(blk.w1.Grad, hin, da)
		dhin := nn.NewMat(b, m.cfg.Hidden)
		nn.MatMulBT(dhin, da, blk.w1.Val)
		nn.AddInto(dh, dhin) // dh (identity path) + dhin ⇒ reuse dh as dhin total
	}

	// Input layer backward: h0 = relu(x·inW + inB).
	nn.ReluBackward(dh, st.h0)
	nn.BiasGradAdd(m.inB.Grad.Row(0), dh)
	nn.MatMulATAdd(m.inW.Grad, st.x, dh)
	dx := nn.NewMat(b, m.inDim)
	nn.MatMulBT(dx, dh, m.inW.Val)

	// Embedding input gradients (per column block), honoring MASK rows.
	ids := make([]int32, b)
	for i := 0; i < m.n; i++ {
		maskID := int32(m.doms[i])
		for r := 0; r < b; r++ {
			t := inputs[r][i]
			if t < 0 {
				t = maskID
			}
			ids[r] = t
		}
		nn.ScatterAddGrad(m.embeds[i].Grad, ids, dx, m.offsets[i])
	}

	// Enforce autoregressive masks on gradients before the update.
	nn.Hadamard(m.inW.Grad, m.inW.Grad, m.inMask)
	for _, blk := range m.blocks {
		nn.Hadamard(blk.w1.Grad, blk.w1.Grad, m.hhMask)
		nn.Hadamard(blk.w2.Grad, blk.w2.Grad, m.hhMask)
	}
	// Head weights: zero rows of dropped hidden units (grad already zero
	// there because hm is zero, so no extra masking is required).

	return totalLoss / float64(b)
}
