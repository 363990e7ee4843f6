package nn

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// sameBits fails unless got and want hold the same IEEE-754 bits element by
// element, so a +0/−0 difference counts as a mismatch.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// headLogits builds a rows × dom logits matrix and targets covering the
// cases a training head meets: masked targets (t < 0), rows whose softmax
// saturates to an exact one-hot (an all-zero gradient row), and rows of
// ordinary random logits.
func headLogits(rng *rand.Rand, rows, dom int) (*Mat, []int32) {
	logits := randMat(rng, rows, dom)
	targets := make([]int32, rows)
	for r := range targets {
		targets[r] = int32(rng.Intn(dom))
		switch r % 5 {
		case 1:
			targets[r] = -1
		case 3:
			row := logits.Row(r)
			for j := range row {
				row[j] = 0
			}
			row[targets[r]] = 1000 // exp(−1000) underflows: p = onehot, gradient 0
		}
	}
	return logits, targets
}

// TestCrossEntropyInPlaceMatchesSequence: the in-place head epilogue must
// reproduce CrossEntropy into a separate buffer, the 1/b scaling pass and
// BiasGradAdd bit for bit — gradient, loss and bias gradient, including a
// bias gradient that starts at −0.
func TestCrossEntropyInPlaceMatchesSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range []struct {
		rows, dom int
		allMasked bool
	}{{1, 2, false}, {7, 2, false}, {10, 3, false}, {33, 17, false}, {64, 2, false}, {40, 568, false}, {3, 2, true}} {
		logits, targets := headLogits(rng, sh.rows, sh.dom)
		if sh.allMasked {
			for r := range targets {
				targets[r] = -1
			}
		}
		bias := make([]float64, sh.dom)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}
		bias[0] = math.Copysign(0, -1)
		scale := 1.0 / float64(sh.rows)

		dWant := NewMat(sh.rows, sh.dom)
		lossWant := Serial.CrossEntropy(logits, targets, dWant)
		for j := range dWant.Data {
			dWant.Data[j] *= scale
		}
		biasWant := append([]float64(nil), bias...)
		BiasGradAdd(biasWant, dWant)

		got := logits.Clone()
		biasGot := append([]float64(nil), bias...)
		lossGot := CrossEntropyInPlace(got, targets, scale, biasGot)

		sameBits(t, "gradient", got.Data, dWant.Data)
		sameBits(t, "bias gradient", biasGot, biasWant)
		sameBits(t, "loss", []float64{lossGot}, []float64{lossWant})
	}
}

// TestMatMulBTMatchesMatMulOnHeadGradients: training heads compute
// dProj = dLogits·emb as MatMulBT row dots against the transposed
// embedding. That must equal MatMul's axpy form, which skips zero entries
// of dLogits, bit for bit — on gradients with all-zero rows and scattered
// exact zeros, for embedding widths below, at and past a multiple of eight.
func TestMatMulBTMatchesMatMulOnHeadGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range []struct{ rows, dom, embed int }{
		{1, 2, 8}, {9, 2, 3}, {33, 17, 8}, {40, 5, 11}, {64, 300, 16}, {12, 2, 24},
	} {
		logits, targets := headLogits(rng, sh.rows, sh.dom)
		dLogits := logits.Clone()
		CrossEntropyInPlace(dLogits, targets, 1.0/float64(sh.rows), make([]float64, sh.dom))
		for i := range dLogits.Data {
			if rng.Intn(7) == 0 {
				dLogits.Data[i] = 0
			}
		}
		emb := randMat(rng, sh.dom, sh.embed)
		embT := NewMat(sh.embed, sh.dom)
		TransposeInto(embT, emb)

		for _, p := range []*Pool{Serial, NewPool(3)} {
			want := NewMat(sh.rows, sh.embed)
			p.MatMul(want, dLogits, emb)
			got := NewMat(sh.rows, sh.embed)
			Serial.MatMulBT(got, dLogits, embT)
			sameBits(t, "dProj", got.Data, want.Data)
		}
	}
}

// TestMatMulAddColsSeqMatchesCalls: one ordered multi-term dispatch must
// equal single-term calls made one after another, bit for bit, on serial
// and parallel pools.
func TestMatMulAddColsSeqMatchesCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const rows, inner, cols = 70, 8, 40
	var a, b []*Mat
	var m []int
	for i := 0; i < 6; i++ {
		ai := randMat(rng, rows, inner)
		sparsify(rng, ai)
		a = append(a, ai)
		b = append(b, randMat(rng, inner, cols))
		m = append(m, rng.Intn(cols+1))
	}
	start := randMat(rng, rows, cols)
	want := start.Clone()
	for i := range a {
		Serial.MatMulAddColsSeq(want, a[i:i+1], b[i:i+1], m[i:i+1])
	}
	for _, p := range []*Pool{Serial, NewPool(2), NewPool(4)} {
		got := start.Clone()
		p.MatMulAddColsSeq(got, a, b, m)
		sameBits(t, "dh", got.Data, want.Data)
	}
}

// TestRunTasks: every task runs exactly once, slot indexes stay below
// min(pool size, maxSlots), no two running calls share a slot, and a
// panicking task surfaces on the caller with the pool still usable.
func TestRunTasks(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		p := NewPool(par)
		for _, maxSlots := range []int{1, 2, 3, 8} {
			limit := min(par, maxSlots)
			for _, n := range []int{0, 1, 3, 50} {
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, limit)
				p.RunTasks(n, maxSlots, func(slot, i int) {
					if slot < 0 || slot >= limit {
						t.Errorf("pool %d, maxSlots %d: slot %d outside [0, %d)", par, maxSlots, slot, limit)
						return
					}
					if busy[slot].Swap(true) {
						t.Errorf("slot %d used by two running tasks", slot)
					}
					runs[i].Add(1)
					busy[slot].Store(false)
				})
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Fatalf("pool %d, maxSlots %d, n %d: task %d ran %d times", par, maxSlots, n, i, c)
					}
				}
			}
		}
	}

	p := NewPool(2)
	caught := func() (r any) {
		defer func() { r = recover() }()
		p.RunTasks(8, 2, func(_, i int) {
			if i == 5 {
				panic("task boom")
			}
		})
		return nil
	}()
	if caught != "task boom" {
		t.Fatalf("recovered %v, want the task's panic value", caught)
	}
	var mu sync.Mutex
	seen := 0
	p.RunTasks(8, 2, func(_, _ int) {
		mu.Lock()
		seen++
		mu.Unlock()
	})
	if seen != 8 {
		t.Fatalf("after a panic, %d of 8 tasks ran", seen)
	}
}
