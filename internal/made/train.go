package made

import (
	"fmt"
	"sort"

	"neurocard/internal/nn"
)

// TrainSession is the construction-side counterpart of InferSession: a
// reusable training context over a Model that owns every buffer one gradient
// step needs — wildcard-masked input rows, the embedded input matrix, all
// trunk activations, per-slot head projection/logits buffers, and the
// backward scratch — allocated once for a maximum batch size, so
// steady-state training performs no per-step buffer allocation.
//
// Step additionally runs the prefix-structured kernels: sorted MADE degrees
// make every masked weight row nonzero only on a contiguous column suffix,
// so trunk forward (MatMulRowSuffix), weight gradients
// (MatMulATAddRowSuffix), and backward ·Wᵀ products (MatMulPrefix /
// MatMulPrefixAdd over per-step weight transposes) skip the
// structurally-zero half of every hidden matmul; head projections run over
// each column's hidden prefix (MatMulSub / MatMulATAddSub) without
// materializing a masked hidden copy, and the optimizer applies clip+Adam
// as one fused two-pass update that skips masked parameter entries. Every
// skipped operation touches only exact zeros, so Step's parameter
// trajectory matches the reference TrainStep bit-for-bit up to the sign of
// zero.
//
// Trunk kernels run row-parallel on the session's pool. The per-column
// heads run as pool tasks instead, one column per task, largest domain
// first, each on its slot's scratch with inline kernels: a head's kernels
// are too small to split across cores, but the columns are independent
// except through dh and the loss. Each task leaves its dProj in a
// per-column buffer, and after the barrier dh and the loss are accumulated
// in ascending column order, so the trained weights are bit-identical for
// any pool size.
//
// A session consumes the model's training RNG in exactly the same pattern
// as TrainStep, so interleaving or swapping the two paths preserves
// fixed-seed trajectories. Sessions are not safe for concurrent use, and at
// most one goroutine may train a given model at a time.
type TrainSession struct {
	m    *Model
	cap  int
	pool *nn.Pool // trunk row chunks and head column tasks; tests swap it

	inputs     [][]int32 // per row: the batch row, or a masked copy below
	maskedRows []int32   // cap × n backing for wildcard-masked rows
	perm       []int     // rand.Perm replica scratch
	ids        []int32   // embedding gather/scatter ids

	x   sessMat   // embedded input (cap × inDim)
	h0  sessMat   // post input layer + ReLU
	mid []sessMat // per block: post-ReLU inner activation
	res []sessMat // per block: block output
	dh  sessMat   // running hidden gradient
	da  sessMat   // block inner-activation gradient
	dx  sessMat   // input-embedding gradient

	// Head phase. slots[k] is pool slot k's scratch, allocated by the first
	// head task that runs on slot k; len(slots) caps the head tasks' slot
	// count (tests swap it). colDProj[i] holds column i's dProj until the
	// ordered dh reduction; colDProjV aliases their matrices for that kernel.
	slots     []headSlot
	colDProj  []sessMat
	colDProjV []*nn.Mat
	colLoss   []float64
	order     []int             // column indexes by descending domain size
	headTask  func(slot, k int) // s.runHead, bound once so steps allocate no closure
	headH     *nn.Mat           // this step's trunk output, read by every head
	headTgt   [][]int32         // this step's target rows

	// Per-step weight transposes: every backward ·Wᵀ product streams rows
	// of a pre-transposed weight (axpy form) instead of running dot
	// products — identical accumulation order, far better ILP and cache
	// behavior, and zero rows of the upstream gradient are skipped whole.
	// Head tasks refresh their own column's headWT and embT.
	inWT   *nn.Mat   // Hidden × inDim
	w1T    []*nn.Mat // per block: Hidden × Hidden
	w2T    []*nn.Mat // per block: Hidden × Hidden
	headWT []*nn.Mat // per column: EmbedDim × Hidden
	embT   []*nn.Mat // per column: EmbedDim × doms[i] (non-MASK rows)
}

// headSlot is one pool slot's head scratch: the projection, the logits
// (overwritten in place by their gradient), and the column's targets.
type headSlot struct {
	proj   sessMat // cap × EmbedDim
	logits sessMat // cap × maxDom backing
	tgt    []int32
}

// maxHeadSlots caps how many head tasks run at once. Each slot holds a
// cap × maxDom logits buffer (about 16 MB at DefaultConfig's batch 512 and
// 4096-value factor domains), so two slots hold exactly the logits and
// dLogits pair the serial head loop needed. The gain was measured on two
// CPUs only; wider hosts still spread the trunk over every core.
const maxHeadSlots = 2

// NewTrainSession creates a training session able to hold batches of up to
// maxBatch tuples.
func (m *Model) NewTrainSession(maxBatch int) *TrainSession {
	if maxBatch < 1 {
		maxBatch = 1
	}
	h := m.cfg.Hidden
	s := &TrainSession{
		m:          m,
		cap:        maxBatch,
		pool:       nn.Default(),
		inputs:     make([][]int32, maxBatch),
		maskedRows: make([]int32, maxBatch*m.n),
		perm:       make([]int, m.n),
		ids:        make([]int32, maxBatch),
		x:          newSessMat(maxBatch, m.inDim),
		h0:         newSessMat(maxBatch, h),
		dh:         newSessMat(maxBatch, h),
		da:         newSessMat(maxBatch, h),
		dx:         newSessMat(maxBatch, m.inDim),
		colDProj:   make([]sessMat, m.n),
		colDProjV:  make([]*nn.Mat, m.n),
		colLoss:    make([]float64, m.n),
		order:      make([]int, m.n),
		slots:      make([]headSlot, min(maxHeadSlots, m.n)),
	}
	for b := 0; b < m.cfg.Blocks; b++ {
		s.mid = append(s.mid, newSessMat(maxBatch, h))
		s.res = append(s.res, newSessMat(maxBatch, h))
	}
	s.inWT = nn.NewMat(h, m.inDim)
	for b := 0; b < m.cfg.Blocks; b++ {
		s.w1T = append(s.w1T, nn.NewMat(h, h))
		s.w2T = append(s.w2T, nn.NewMat(h, h))
	}
	for i, d := range m.doms {
		s.headWT = append(s.headWT, nn.NewMat(m.cfg.EmbedDim, h))
		s.embT = append(s.embT, nn.NewMat(m.cfg.EmbedDim, d))
		s.colDProj[i] = newSessMat(maxBatch, m.cfg.EmbedDim)
		s.colDProjV[i] = &s.colDProj[i].mat
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool { return m.doms[s.order[a]] > m.doms[s.order[b]] })
	s.headTask = s.runHead
	return s
}

// refreshTransposes re-materializes the transposed trunk weights; called
// once per step (weights change every step, and the copies are tiny next
// to a batch-sized matmul).
func (s *TrainSession) refreshTransposes() {
	m := s.m
	nn.TransposeInto(s.inWT, m.inW.Val)
	for bi, blk := range m.blocks {
		nn.TransposeInto(s.w1T[bi], blk.w1.Val)
		nn.TransposeInto(s.w2T[bi], blk.w2.Val)
	}
}

// Cap returns the session's batch capacity.
func (s *TrainSession) Cap() int { return s.cap }

// Step performs one maximum-likelihood gradient step on a batch of token
// tuples, exactly as Model.TrainStep does (same wildcard masking, same RNG
// consumption, same objective) but through the session's preallocated
// scratch and the prefix-structured kernels. It returns the mean negative
// log-likelihood in nats per tuple.
func (s *TrainSession) Step(batch [][]int32, wildcardProb float64) float64 {
	b := len(batch)
	if b == 0 {
		return 0
	}
	if b > s.cap {
		panic(fmt.Sprintf("made: TrainSession.Step batch %d exceeds capacity %d", b, s.cap))
	}
	m := s.m

	// Wildcard-skipping masking into session-owned rows. The RNG call
	// sequence (Float64, Intn, then the Perm recurrence) replicates
	// TrainStep's use of rand.Perm so both paths share seed trajectories.
	inputs := s.inputs[:b]
	for r := range batch {
		if len(batch[r]) != m.n {
			panic(fmt.Sprintf("made: tuple has %d columns, want %d", len(batch[r]), m.n))
		}
		if wildcardProb > 0 && m.rng.Float64() < wildcardProb {
			row := s.maskedRows[r*m.n : (r+1)*m.n]
			copy(row, batch[r])
			k := m.rng.Intn(m.n + 1)
			// rand.Perm replica into reused scratch; the i = 0 iteration is
			// a no-op swap but consumes one Intn draw, exactly as the
			// standard library does (kept for stream compatibility).
			perm := s.perm
			for i := 0; i < m.n; i++ {
				j := m.rng.Intn(i + 1)
				perm[i] = perm[j]
				perm[j] = i
			}
			for _, c := range perm[:k] {
				row[c] = MaskToken
			}
			inputs[r] = row
		} else {
			inputs[r] = batch[r]
		}
	}

	loss := s.backward(inputs, batch)
	m.opt.StepClipped(m.params, m.cfg.ClipNorm)
	m.samplesSeen += b
	m.version++
	return loss
}

// runHead runs forward and backward for the head of column order[k] with
// inline kernels on the scratch of the given pool slot. Besides that
// scratch it writes only the column's own state: its weight transposes,
// parameter gradients, dProj and loss.
func (s *TrainSession) runHead(slot, k int) {
	m := s.m
	i := s.order[k]
	h := s.headH
	b := h.Rows
	pw := m.prefixWidth[i]
	sc := &s.slots[slot]
	if sc.tgt == nil {
		sc.proj = newSessMat(s.cap, m.cfg.EmbedDim)
		sc.logits = newSessMat(s.cap, m.maxDom)
		sc.tgt = make([]int32, s.cap)
	}
	embView := m.embedRowsView(i)
	nn.TransposeInto(s.headWT[i], m.headW[i].Val)
	nn.TransposeInto(s.embT[i], embView)

	// proj = h[:, :pw]·headW[:pw, :]; logits = proj·embᵀ + bias.
	proj := sc.proj.view(b)
	nn.Serial.MatMulSub(proj, h, m.headW[i].Val, pw, m.cfg.EmbedDim)
	logits := sc.logits.viewShape(b, m.doms[i])
	nn.Serial.MatMul(logits, proj, s.embT[i])
	nn.Serial.AddBias(logits, m.headB[i].Val.Row(0))
	tgt := sc.tgt[:b]
	for r, row := range s.headTgt {
		tgt[r] = row[i]
	}
	s.colLoss[i] = nn.CrossEntropyInPlace(logits, tgt, 1.0/float64(b), m.headB[i].Grad.Row(0))
	dLogits := logits // now holds the scaled logits gradient

	dProj := s.colDProj[i].view(b)
	nn.Serial.MatMulBT(dProj, dLogits, s.embT[i])
	nn.Serial.MatMulATAdd(m.embedGradView(i), dLogits, proj)
	nn.Serial.MatMulATAddSub(m.headW[i].Grad, h, dProj, pw)
}

// embedInput fills the session's input matrix from (possibly masked) token
// rows, mapping wildcards to each column's MASK embedding row.
func (s *TrainSession) embedInput(inputs [][]int32, x *nn.Mat) {
	m := s.m
	b := len(inputs)
	ids := s.ids[:b]
	for i := 0; i < m.n; i++ {
		mask := int32(m.doms[i])
		for r := 0; r < b; r++ {
			t := inputs[r][i]
			if t < 0 {
				t = mask
			}
			ids[r] = t
		}
		nn.Gather(x, m.offsets[i], m.embeds[i].Val, ids)
	}
}

// backward runs forward + backprop over the session scratch, accumulating
// parameter gradients, and returns the mean NLL. The structure mirrors
// Model.backward; every dense masked product is replaced by its
// prefix-structured equivalent, which also keeps masked gradient entries at
// exact zero without the reference path's Hadamard re-masking pass.
func (s *TrainSession) backward(inputs, targets [][]int32) float64 {
	m := s.m
	b := len(inputs)
	s.refreshTransposes()

	// Forward trunk.
	x := s.x.view(b)
	s.embedInput(inputs, x)
	h0 := s.h0.view(b)
	s.pool.MatMulRowSuffix(h0, x, m.inW.Val, m.inStart)
	s.pool.AddBiasRelu(h0, m.inB.Val.Row(0))
	h := h0
	for bi, blk := range m.blocks {
		a := s.mid[bi].view(b)
		s.pool.MatMulRowSuffix(a, h, blk.w1.Val, m.hhStart)
		s.pool.AddBiasRelu(a, blk.b1.Val.Row(0))
		f := s.res[bi].view(b)
		s.pool.MatMulRowSuffix(f, a, blk.w2.Val, m.hhStart)
		s.pool.AddBiasResidual(f, blk.b2.Val.Row(0), h)
		h = f
	}

	// Heads: one pool task per column, then dh and the loss in ascending
	// column order (see the type comment).
	dh := s.dh.view(b)
	dh.Zero()
	s.headH, s.headTgt = h, targets
	s.pool.RunTasks(m.n, len(s.slots), s.headTask)
	s.headH, s.headTgt = nil, nil
	s.pool.MatMulAddColsSeq(dh, s.colDProjV, s.headWT, m.prefixWidth)
	totalLoss := 0.0
	for _, l := range s.colLoss {
		totalLoss += l
	}

	// Trunk backward through residual blocks; the residual (identity) path
	// accumulation is fused into the input-gradient kernels.
	for bi := len(m.blocks) - 1; bi >= 0; bi-- {
		blk := m.blocks[bi]
		var hin *nn.Mat
		if bi == 0 {
			hin = s.h0.view(b)
		} else {
			hin = s.res[bi-1].view(b)
		}
		a := s.mid[bi].view(b)
		// f = a·W2 + b2; out = hin + f  ⇒ df = dh.
		nn.BiasGradAdd(blk.b2.Grad.Row(0), dh)
		s.pool.MatMulATAddRowSuffix(blk.w2.Grad, a, dh, m.hhStart)
		da := s.da.view(b)
		s.pool.MatMulPrefix(da, dh, s.w2T[bi], m.hhExtT)
		nn.ReluBackward(da, a)
		nn.BiasGradAdd(blk.b1.Grad.Row(0), da)
		s.pool.MatMulATAddRowSuffix(blk.w1.Grad, hin, da, m.hhStart)
		s.pool.MatMulPrefixAdd(dh, da, s.w1T[bi], m.hhExtT) // dh += da·W1ᵀ (identity path already in dh)
	}

	// Input layer backward: h0 = relu(x·inW + inB).
	nn.ReluBackward(dh, s.h0.view(b))
	nn.BiasGradAdd(m.inB.Grad.Row(0), dh)
	s.pool.MatMulATAddRowSuffix(m.inW.Grad, x, dh, m.inStart)
	dx := s.dx.view(b)
	s.pool.MatMulPrefix(dx, dh, s.inWT, m.inExtT)

	// Embedding input gradients (per column block), honoring MASK rows.
	ids := s.ids[:b]
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

	// No gradient re-masking: the suffix kernels never write masked entries.
	return totalLoss / float64(b)
}
