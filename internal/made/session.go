package made

import (
	"fmt"

	"neurocard/internal/nn"
)

// sessMatG is a preallocated matrix whose active row count (and, for the
// logits buffer, column count) is adjusted in place, so resizing the working
// batch never allocates.
type sessMatG[T nn.Elem] struct {
	mat  nn.MatG[T]
	full []T
}

// sessMat is the float64 instantiation, used by training-side scratch (NLL).
type sessMat = sessMatG[float64]

func newSessMat(rows, cols int) sessMat { return newSessMatG[float64](rows, cols) }

func newSessMatG[T nn.Elem](rows, cols int) sessMatG[T] {
	return sessMatG[T]{mat: nn.MatG[T]{Cols: cols}, full: make([]T, rows*cols)}
}

// view returns the buffer shaped rows × (fixed Cols), sharing storage.
func (s *sessMatG[T]) view(rows int) *nn.MatG[T] {
	s.mat.Rows = rows
	s.mat.Data = s.full[:rows*s.mat.Cols]
	return &s.mat
}

// viewShape returns the buffer reshaped rows × cols, sharing storage.
func (s *sessMatG[T]) viewShape(rows, cols int) *nn.MatG[T] {
	s.mat.Rows, s.mat.Cols = rows, cols
	s.mat.Data = s.full[:rows*cols]
	return &s.mat
}

// copyRow copies row src into row dst at the buffer's fixed column width.
func (s *sessMatG[T]) copyRow(dst, src int) {
	c := s.mat.Cols
	copy(s.full[dst*c:(dst+1)*c], s.full[src*c:(src+1)*c])
}

// copyRowPrefix copies only the leading w entries of row src into row dst —
// trunk buffers are valid (and read) only on [0, validW), so compaction and
// replication skip the stale suffix that extendTrunk would overwrite anyway.
func (s *sessMatG[T]) copyRowPrefix(dst, src, w int) {
	c := s.mat.Cols
	copy(s.full[dst*c:dst*c+w], s.full[src*c:src*c+w])
}

// InferSessionOf is a reusable inference context over a Model at element
// width T: it owns every scratch buffer the progressive-sampling hot path
// needs (token matrix, input-layer preactivation, per-layer trunk
// activations, head buffers) and keeps the trunk input incrementally up to
// date, so serving a query — and every query after it — allocates nothing.
// All activations, cached projections, and weight reads run at width T end
// to end; the hot path never mixes widths.
//
// Two structural facts make the hot path cheap. First, the session maintains
// z0, the input-layer preactivation x·inW + inB, under per-token delta
// updates (SetToken costs EmbedDim×suffix per row instead of a full
// NumCols·EmbedDim×Hidden input matmul). Second — the sorted-degree
// invariant — hidden unit u of every layer depends only on units of degree
// ≤ degrees[u], all inside the contiguous prefix [0, u's degree run). Once
// every model column < col is final (drawn or permanently wildcard), the
// leading prefixWidth[col] units of every layer are final too. The session
// tracks that boundary in validW and extends each layer by only the
// newly-unmasked column range [validW, prefixWidth[col]) per sampling step,
// so across a whole query every hidden unit is computed once — a single
// logical trunk pass amortized over all steps — instead of one full
// prefix-trunk pass per step.
//
// Sessions are not safe for concurrent use; create one per worker. Weight
// updates (TrainStep) are detected via the model's version counter: the next
// Reset re-resolves the serving weights (for float32, a freshly converted
// shared snapshot) and recomputes the cached MASK projections.
type InferSessionOf[T nn.Elem] struct {
	m      *Model
	w      *servingWeights[T]        // serving-width weight view (see weights.go)
	reload func() *servingWeights[T] // re-resolves w after a version change
	pool   *nn.Pool                  // kernel execution pool; nn.Serial in serial mode
	cap    int                       // row capacity
	b      int                       // active rows

	tokens []int32 // cap × n, row-major; MaskToken marks wildcards

	z0       sessMatG[T]   // input-layer preactivation, incrementally maintained
	h0       sessMatG[T]   // relu(z0), maintained on [0, validW)
	mid, res []sessMatG[T] // per residual block: inner activation, block output
	proj     sessMatG[T]   // head scratch: embedding projection
	logits   sessMatG[T]   // head logits / probabilities (cap × maxDom backing)

	maskProj *nn.MatG[T] // n × Hidden: each column's MASK contribution to z0
	maskZ    []T         // Hidden: preactivation of the all-MASK row (incl. bias)

	version uint64       // model version maskProj/maskZ were computed at
	topBuf  *sessMatG[T] // trunk output layer (res[last], or h0 with no blocks)
	validW  int          // layer prefix [0, validW) computed and final for current tokens
}

// InferSession is the float64 inference session — the width training uses,
// and the default serving path.
type InferSession = InferSessionOf[float64]

// InferSession32 is the float32 inference session: same session machinery
// over the model's converted-at-load float32 serving snapshot. Draws are
// deterministic per seed but not bit-equal to the float64 path; the serving
// stack gates this width on measured q-error delta instead (DESIGN.md §1.4).
type InferSession32 = InferSessionOf[float32]

// NewInferSession creates a float64 session able to hold up to maxRows
// sampling rows.
func (m *Model) NewInferSession(maxRows int) *InferSession {
	return newInferSession(m, maxRows, m.weights64)
}

// NewInferSession32 creates a float32 session able to hold up to maxRows
// sampling rows, converting the model's weights to float32 first if no
// current snapshot exists.
func (m *Model) NewInferSession32(maxRows int) *InferSession32 {
	return newInferSession(m, maxRows, m.weights32)
}

func newInferSession[T nn.Elem](m *Model, maxRows int, reload func() *servingWeights[T]) *InferSessionOf[T] {
	if maxRows < 1 {
		maxRows = 1
	}
	maxDom := 0
	for _, d := range m.doms {
		if d > maxDom {
			maxDom = d
		}
	}
	h := m.cfg.Hidden
	s := &InferSessionOf[T]{
		m:        m,
		reload:   reload,
		pool:     nn.Default(),
		cap:      maxRows,
		tokens:   make([]int32, maxRows*m.n),
		z0:       newSessMatG[T](maxRows, h),
		h0:       newSessMatG[T](maxRows, h),
		proj:     newSessMatG[T](maxRows, m.cfg.EmbedDim),
		logits:   newSessMatG[T](maxRows, maxDom),
		maskProj: nn.NewMatG[T](m.n, h),
		maskZ:    make([]T, h),
	}
	for b := 0; b < m.cfg.Blocks; b++ {
		s.mid = append(s.mid, newSessMatG[T](maxRows, h))
		s.res = append(s.res, newSessMatG[T](maxRows, h))
	}
	if m.cfg.Blocks > 0 {
		s.topBuf = &s.res[m.cfg.Blocks-1]
	} else {
		s.topBuf = &s.h0
	}
	s.refresh()
	return s
}

// refresh re-resolves the serving weights and recomputes the weight-derived
// caches (per-column MASK projections and the all-MASK preactivation row).
func (s *InferSessionOf[T]) refresh() {
	m := s.m
	s.w = s.reload()
	s.maskProj.Zero()
	copy(s.maskZ, s.w.inB)
	for c := 0; c < m.n; c++ {
		row := s.maskProj.Row(c)
		// Row doms[c] is the MASK embedding; the masked inW block is zero
		// below prefixWidth[c], so the restricted accumulation is exact.
		s.w.addEmbProjFrom(row, c, int32(m.doms[c]), 1, m.prefixWidth[c])
		for k, v := range row[m.prefixWidth[c]:] {
			s.maskZ[m.prefixWidth[c]+k] += v
		}
	}
	s.version = m.version
}

// Cap returns the session's row capacity.
func (s *InferSessionOf[T]) Cap() int { return s.cap }

// SetSerial switches the session's kernels between the shared parallel pool
// and fully inline execution. Batch-serving workers run serial so total
// goroutine count stays at one per worker instead of workers × kernel
// chunks (the DESIGN.md §1.2 oversubscription limitation).
func (s *InferSessionOf[T]) SetSerial(on bool) {
	if on {
		s.pool = nn.Serial
	} else {
		s.pool = nn.Default()
	}
}

// Rows returns the active row count.
func (s *InferSessionOf[T]) Rows() int { return s.b }

// Reset starts a fresh sampling batch of the given row count: every token
// becomes a wildcard, the preactivation is restored to the all-MASK row, and
// the cached trunk is discarded.
func (s *InferSessionOf[T]) Reset(rows int) {
	if rows < 0 || rows > s.cap {
		panic(fmt.Sprintf("made: InferSession.Reset %d rows, capacity %d", rows, s.cap))
	}
	if s.version != s.m.version {
		s.refresh()
	}
	s.b = rows
	toks := s.tokens[:rows*s.m.n]
	for i := range toks {
		toks[i] = MaskToken
	}
	z := s.z0.view(rows)
	for r := 0; r < rows; r++ {
		copy(z.Row(r), s.maskZ)
	}
	s.validW = 0
}

// TokenRow returns row r's token vector, aliasing session storage. Callers
// must treat it as read-only; use SetToken to mutate.
func (s *InferSessionOf[T]) TokenRow(r int) []int32 {
	n := s.m.n
	return s.tokens[r*n : (r+1)*n]
}

// SetToken assigns column col of row r (MaskToken restores the wildcard),
// updating the input-layer preactivation by the embedding delta. Column
// col's masked input rows are zero below prefixWidth[col], so only the z0
// suffix from there changes — and the cached trunk prefix below it survives.
func (s *InferSessionOf[T]) SetToken(r, col int, tok int32) {
	m := s.m
	old := s.tokens[r*m.n+col]
	if old == tok {
		return
	}
	from := m.prefixWidth[col]
	zrow := s.z0.view(s.b).Row(r)
	if old < 0 {
		s.addMaskProj(zrow, col, from, -1)
	} else {
		s.w.addEmbProjFrom(zrow, col, old, -1, from)
	}
	if tok < 0 {
		tok = MaskToken
		s.addMaskProj(zrow, col, from, 1)
	} else {
		s.w.addEmbProjFrom(zrow, col, tok, 1, from)
	}
	s.tokens[r*m.n+col] = tok
	if from < s.validW {
		s.validW = from
	}
}

// unitRow is the one-entry embedding that turns nn.EmbedAxpy64 into a
// single-row update: y + (±1)·m is exactly y ± m.
var unitRow = []float64{1}

// addMaskProj adds (sign = 1) or subtracts (sign = -1) column col's MASK
// contribution to a preactivation row over hidden units [from, Hidden).
func (s *InferSessionOf[T]) addMaskProj(zrow []T, col, from int, sign T) {
	if s.w.embVT != nil {
		nn.EmbedAxpy64(any(zrow[from:]).([]float64), any(s.maskProj).(*nn.Mat), col, from,
			unitRow, any(sign).(float64))
		return
	}
	mrow := s.maskProj.Row(col)[from:]
	if sign < 0 {
		for k, v := range mrow {
			zrow[from+k] -= v
		}
		return
	}
	for k, v := range mrow {
		zrow[from+k] += v
	}
}

// CompactRows overwrites row dst with row src (tokens, preactivation, and
// cached trunk state), the primitive behind active-row compaction: callers
// move live rows into slots freed by zero-weight rows, then Shrink. The
// trunk cache stays valid — compaction permutes rows, never values.
func (s *InferSessionOf[T]) CompactRows(dst, src int) {
	if dst == src {
		return
	}
	n := s.m.n
	copy(s.tokens[dst*n:(dst+1)*n], s.tokens[src*n:(src+1)*n])
	s.z0.copyRow(dst, src)
	if s.validW > 0 {
		s.h0.copyRowPrefix(dst, src, s.validW)
		for bi := range s.mid {
			s.mid[bi].copyRowPrefix(dst, src, s.validW)
			s.res[bi].copyRowPrefix(dst, src, s.validW)
		}
	}
}

// Shrink reduces the active row count to rows (rows ≤ current). Surviving
// rows keep their cached trunk state.
func (s *InferSessionOf[T]) Shrink(rows int) {
	if rows < 0 || rows > s.b {
		panic(fmt.Sprintf("made: InferSession.Shrink %d rows, active %d", rows, s.b))
	}
	s.b = rows
}

// Replicate fans a single-row session out to rows identical rows: tokens,
// preactivation, and cached trunk state of row 0 are copied into rows
// [1, rows). Progressive sampling runs one logical row while every sampling
// row is still bit-identical (deterministic indicator steps and the shared
// forward pass of the first stochastic column) and replicates only at the
// first per-row draw.
func (s *InferSessionOf[T]) Replicate(rows int) {
	if s.b != 1 {
		panic(fmt.Sprintf("made: InferSession.Replicate from %d rows, want 1", s.b))
	}
	if rows < 1 || rows > s.cap {
		panic(fmt.Sprintf("made: InferSession.Replicate %d rows, capacity %d", rows, s.cap))
	}
	n := s.m.n
	for r := 1; r < rows; r++ {
		copy(s.tokens[r*n:(r+1)*n], s.tokens[:n])
		s.z0.copyRow(r, 0)
		if s.validW > 0 {
			s.h0.copyRowPrefix(r, 0, s.validW)
			for bi := range s.mid {
				s.mid[bi].copyRowPrefix(r, 0, s.validW)
				s.res[bi].copyRowPrefix(r, 0, s.validW)
			}
		}
	}
	s.b = rows
}

// extendTrunk computes hidden units [lo, hi) of every trunk layer from the
// current preactivation, leaving [0, lo) untouched (those units are final —
// see the sorted-degree invariant in the type comment). Unit k of any layer
// reads only previous-layer units of degree ≤ its own, all below hi, so the
// range extension is arithmetically identical to a full prefix pass at
// width hi.
func (s *InferSessionOf[T]) extendTrunk(lo, hi int) {
	b := s.b
	z := s.z0.view(b)
	h := s.h0.view(b)
	for r := 0; r < b; r++ {
		zrow := z.Row(r)[lo:hi]
		hrow := h.Row(r)[lo:hi]
		for i, v := range zrow {
			if v > 0 {
				hrow[i] = v
			} else {
				hrow[i] = 0
			}
		}
	}
	cur := h
	for bi := range s.w.blocks {
		blk := &s.w.blocks[bi]
		a := s.mid[bi].view(b)
		switch {
		case blk.w1T != nil:
			// Float32 view: transposed weights, contiguous SSE dot products
			// per extended unit (see servingBlock.w1T).
			nn.MatMulColsBT32(s.pool, any(a).(*nn.Mat32), any(cur).(*nn.Mat32),
				any(blk.w1T).(*nn.Mat32), hi, lo, hi)
		case s.w.embVT != nil:
			// AVX float64 view: lanes across the extended units.
			nn.MatMulCols64(s.pool, any(a).(*nn.Mat), any(cur).(*nn.Mat),
				any(blk.w1).(*nn.Mat), hi, lo, hi)
		default:
			nn.MatMulColsG(s.pool, a, cur, blk.w1, hi, lo, hi)
		}
		nn.AddBiasReluCols(a, blk.b1, b, lo, hi)
		f := s.res[bi].view(b)
		switch {
		case blk.w2T != nil:
			nn.MatMulColsBT32(s.pool, any(f).(*nn.Mat32), any(a).(*nn.Mat32),
				any(blk.w2T).(*nn.Mat32), hi, lo, hi)
		case s.w.embVT != nil:
			nn.MatMulCols64(s.pool, any(f).(*nn.Mat), any(a).(*nn.Mat),
				any(blk.w2).(*nn.Mat), hi, lo, hi)
		default:
			nn.MatMulColsG(s.pool, f, a, blk.w2, hi, lo, hi)
		}
		nn.AddBiasResidualCols(f, cur, blk.b2, b, lo, hi)
		cur = f
	}
}

// Probs computes p(X_col = · | current tokens) for every active row,
// returning a session-owned b × DomainSize(col) matrix of row-normalized
// probabilities (valid until the next session call). The trunk is extended
// by only the hidden units newly unmasked since the last computed boundary;
// consecutive Probs calls with no token changes reuse it entirely. Head
// masking (degree ≤ col) is the prefix restriction itself, so no separate
// masked copy of the hidden state is needed.
func (s *InferSessionOf[T]) Probs(col int) *nn.MatG[T] {
	m := s.m
	if col < 0 || col >= m.n {
		panic(fmt.Sprintf("made: InferSession.Probs column %d of %d", col, m.n))
	}
	mW := m.prefixWidth[col]
	if s.validW < mW {
		s.extendTrunk(s.validW, mW)
		s.validW = mW
	}
	top := s.topBuf.view(s.b)
	proj := s.proj.view(s.b)
	out := s.logits.viewShape(s.b, m.doms[col])
	switch {
	case s.w.headWT != nil:
		nn.MatMulColsBT32(s.pool, any(proj).(*nn.Mat32), any(top).(*nn.Mat32),
			any(s.w.headWT[col]).(*nn.Mat32), mW, 0, m.cfg.EmbedDim)
		nn.MatMulBTG(s.pool, out, proj, s.w.embVw[col])
	case s.w.embVT != nil:
		// AVX float64 view: lanes across the projection's EmbedDim outputs,
		// then across the logits over the transposed embedding.
		proj64 := any(proj).(*nn.Mat)
		nn.MatMulCols64(s.pool, proj64, any(top).(*nn.Mat), any(s.w.headW[col]).(*nn.Mat), mW, 0, m.cfg.EmbedDim)
		nn.MatMulCols64(s.pool, any(out).(*nn.Mat), proj64, s.w.embVT[col], m.cfg.EmbedDim, 0, m.doms[col])
	default:
		nn.MatMulSubG(s.pool, proj, top, s.w.headW[col], mW, m.cfg.EmbedDim)
		nn.MatMulBTG(s.pool, out, proj, s.w.embVw[col])
	}
	nn.AddBiasG(s.pool, out, s.w.headB[col])
	nn.SoftmaxRowsG(s.pool, out, out)
	return out
}
