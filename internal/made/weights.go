package made

import "neurocard/internal/nn"

// servingWeights is the serving-kernel view of a model's parameters at
// element width T. The float64 view aliases the trainable parameter storage
// directly (zero copies); on AVX hosts it additionally carries derived
// layouts (embVT) and is then, like the float32 view, a snapshot built once
// per model version and shared by every session of the model. The float32
// view is a converted snapshot — conversion-at-load, so the resident
// serving-kernel bytes halve regardless of session count. Checkpoints always
// store float64; every view can be rebuilt from the masters at any time.
type servingWeights[T nn.Elem] struct {
	m       *Model // metadata: offsets, prefixWidth, doms (never element data)
	version uint64 // model version these weights mirror

	inW    *nn.MatG[T]
	inB    []T // Hidden
	blocks []servingBlock[T]
	headW  []*nn.MatG[T] // float64 view only; float32 stores headWT instead
	headB  [][]T
	embeds []*nn.MatG[T] // (doms[i]+1) × EmbedDim; last row = MASK embedding
	embVw  []*nn.MatG[T] // first doms[i] rows of embeds[i] (tied projection)

	// headWT holds each head weight transposed (EmbedDim × Hidden) — set only
	// on the float32 view, where the transposed layout turns the head
	// projection into contiguous dot products (nn.MatMulColsBT32). It
	// replaces headW rather than duplicating it, so the float32 resident
	// bytes stay at exactly half the float64 parameters'.
	headWT []*nn.MatG[T]

	// embVT holds each tied output projection embVw[i] transposed
	// (EmbedDim × doms[i]) — set only on the float64 view of an AVX host,
	// where it lets the logits run their lanes across the doms[i] outputs
	// (nn.MatMulCols64). Its presence selects the AVX float64 kernels for
	// the whole session (see InferSessionOf.Probs).
	embVT []*nn.Mat
}

type servingBlock[T nn.Elem] struct {
	w1 *nn.MatG[T] // float64 view only; float32 stores w1T/w2T instead
	b1 []T
	w2 *nn.MatG[T]
	b2 []T

	// w1T/w2T are the transposed trunk weights of the float32 view (see
	// servingWeights.headWT); nil on the float64 view.
	w1T *nn.MatG[T]
	w2T *nn.MatG[T]
}

// weights64 returns the float64 serving view: on hosts without the AVX
// kernels the aliasing view (aliasWeights64), and on AVX hosts the model's
// shared snapshot of it plus the derived embVT layout, rebuilt when training
// has advanced the model version — the same staleness check as weights32.
func (m *Model) weights64() *servingWeights[float64] {
	if !nn.AVX() {
		return m.aliasWeights64()
	}
	if w := m.w64.Load(); w != nil && w.version == m.version {
		return w
	}
	w := m.aliasWeights64()
	for i, d := range m.doms {
		t := nn.NewMat(m.cfg.EmbedDim, d)
		nn.TransposeInto(t, m.embViews[i])
		w.embVT = append(w.embVT, t)
	}
	m.w64.Store(w)
	return w
}

// DerivedBytes64 reports the resident bytes of the float64 serving view's
// derived layouts (the transposed output projections of AVX hosts): zero
// when the AVX kernels are off.
func (m *Model) DerivedBytes64() int {
	if !nn.AVX() {
		return 0
	}
	n := 0
	for _, d := range m.doms {
		n += d * m.cfg.EmbedDim * 8
	}
	return n
}

// aliasWeights64 builds the aliasing float64 view. The view shares storage
// with the trainable parameters, so it tracks TrainStep updates with no
// copy; it is rebuilt per session construction (a handful of slice headers)
// rather than cached, because parameter Mats could in principle be
// re-pointed by a future load path.
func (m *Model) aliasWeights64() *servingWeights[float64] {
	w := &servingWeights[float64]{
		m:       m,
		version: m.version,
		inW:     m.inW.Val,
		inB:     m.inB.Val.Row(0),
	}
	for _, blk := range m.blocks {
		w.blocks = append(w.blocks, servingBlock[float64]{
			w1: blk.w1.Val, b1: blk.b1.Val.Row(0),
			w2: blk.w2.Val, b2: blk.b2.Val.Row(0),
		})
	}
	for i := range m.doms {
		w.headW = append(w.headW, m.headW[i].Val)
		w.headB = append(w.headB, m.headB[i].Val.Row(0))
		w.embeds = append(w.embeds, m.embeds[i].Val)
		w.embVw = append(w.embVw, m.embViews[i])
	}
	return w
}

// weights32 returns the model's shared float32 serving snapshot, converting
// the float64 masters when none exists or when training has advanced the
// model version since the last conversion. Snapshots are immutable once
// published — a refresh builds a fresh one and swaps the pointer — so
// concurrent sessions never observe a half-converted kernel set.
func (m *Model) weights32() *servingWeights[float32] {
	if w := m.w32.Load(); w != nil && w.version == m.version {
		return w
	}
	w := &servingWeights[float32]{
		m:       m,
		version: m.version,
		inW:     nn.Convert32(m.inW.Val),
		inB:     convert32(m.inB.Val.Row(0)),
	}
	for _, blk := range m.blocks {
		w.blocks = append(w.blocks, servingBlock[float32]{
			w1T: nn.ConvertT32(blk.w1.Val), b1: convert32(blk.b1.Val.Row(0)),
			w2T: nn.ConvertT32(blk.w2.Val), b2: convert32(blk.b2.Val.Row(0)),
		})
	}
	for i, d := range m.doms {
		w.headWT = append(w.headWT, nn.ConvertT32(m.headW[i].Val))
		w.headB = append(w.headB, convert32(m.headB[i].Val.Row(0)))
		e := nn.Convert32(m.embeds[i].Val)
		w.embeds = append(w.embeds, e)
		w.embVw = append(w.embVw, &nn.Mat32{Rows: d, Cols: e.Cols, Data: e.Data[:d*e.Cols]})
	}
	m.w32.Store(w)
	return w
}

func convert32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// addEmbProjFrom accumulates sign·(emb_c[id] · inW[block c]) into dst over
// hidden units [from, Hidden) — the serving-width counterpart of
// Model.addEmbProjFrom, reading this view's (possibly converted) weights so
// the session hot path never mixes element widths.
func (w *servingWeights[T]) addEmbProjFrom(dst []T, c int, id int32, sign T, from int) {
	emb := w.embeds[c].Row(int(id))
	base := w.m.offsets[c]
	sub := dst[from:]
	if s32, ok := any(sub).([]float32); ok {
		// Float32 width: SSE axpy rows (same per-element semantics as the
		// scalar loop below, just 4 lanes wide).
		e32 := any(emb).([]float32)
		inW := any(w.inW).(*nn.Mat32)
		sg := any(sign).(float32)
		for j, ev := range e32 {
			v := ev * sg
			if v == 0 {
				continue
			}
			nn.Axpy32(v, inW.Row(base + j)[from:], s32)
		}
		return
	}
	if w.embVT != nil {
		// AVX float64 view: the same j-outer axpy sequence on 4-wide lanes.
		nn.EmbedAxpy64(any(sub).([]float64), any(w.inW).(*nn.Mat), base, from,
			any(emb).([]float64), any(sign).(float64))
		return
	}
	for j, ev := range emb {
		v := ev * sign
		if v == 0 {
			continue
		}
		wrow := w.inW.Row(base + j)[from:]
		for k, wv := range wrow {
			sub[k] += v * wv
		}
	}
}
