package made

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"neurocard/internal/nn"
)

// TestTrainSessionMatchesTrainStep is the training-path equivalence
// contract: a TrainSession fed the same batches as the legacy TrainStep on
// an identically-seeded twin model must reproduce the loss trajectory and
// the final parameters. The session consumes the model RNG in the same
// pattern, and every prefix-structured/fused kernel preserves per-element
// accumulation order, so agreement is expected to machine precision.
func TestTrainSessionMatchesTrainStep(t *testing.T) {
	doms := []int{3, 7, 2, 5, 4}
	legacy, err := New(tinyConfig(21), doms)
	if err != nil {
		t.Fatal(err)
	}
	session, err := New(tinyConfig(21), doms)
	if err != nil {
		t.Fatal(err)
	}
	ts := session.NewTrainSession(32)

	dataRng := rand.New(rand.NewSource(33))
	for step := 0; step < 60; step++ {
		// Batch sizes vary (including non-multiples of the kernel blocking
		// factor) to cover the blocked and remainder paths.
		batch := randBatch(dataRng, doms, 5+dataRng.Intn(28))
		lossLegacy := legacy.TrainStep(batch, 0.4)
		lossSession := ts.Step(batch, 0.4)
		if math.Abs(lossLegacy-lossSession) > 1e-9*(1+math.Abs(lossLegacy)) {
			t.Fatalf("step %d: legacy loss %v vs session loss %v", step, lossLegacy, lossSession)
		}
	}
	for pi, p := range legacy.params {
		q := session.params[pi]
		for i := range p.Val.Data {
			if math.Abs(p.Val.Data[i]-q.Val.Data[i]) > 1e-9 {
				t.Fatalf("%s[%d]: legacy %v vs session %v", p.Name, i, p.Val.Data[i], q.Val.Data[i])
			}
		}
	}
	// Held-out NLL must agree too.
	probe := randBatch(dataRng, doms, 16)
	if a, b := legacy.NLL(probe), session.NLL(probe); math.Abs(a-b) > 1e-9 {
		t.Fatalf("final NLL diverged: %v vs %v", a, b)
	}
	if legacy.SamplesSeen() != session.SamplesSeen() {
		t.Fatalf("SamplesSeen %d vs %d", legacy.SamplesSeen(), session.SamplesSeen())
	}
}

// TestTrainSessionBackwardMatchesReference compares the session's
// prefix-structured backward pass against the dense reference backward on
// the same weights: every parameter gradient must match to 1e-12. Together
// with the finite-difference checks on the reference path (TestGradientCheck),
// this validates the new kernels' backward formulas end to end.
func TestTrainSessionBackwardMatchesReference(t *testing.T) {
	doms := []int{4, 3, 6, 2}
	ref, err := New(tinyConfig(22), doms)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := New(tinyConfig(22), doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// Non-trivial weights: a few identical warmup steps on both models.
	for s := 0; s < 5; s++ {
		batch := randBatch(rng, doms, 16)
		ref.TrainStep(batch, 0)
		ses.TrainStep(batch, 0)
	}
	batch := randBatch(rng, doms, 11)
	inputs := make([][]int32, len(batch))
	for i := range batch {
		inputs[i] = append([]int32(nil), batch[i]...)
	}
	inputs[0][1] = MaskToken
	inputs[3][0] = MaskToken

	lossRef := ref.backward(inputs, batch)
	ts := ses.NewTrainSession(len(batch))
	lossSes := ts.backward(inputs, batch)
	if math.Abs(lossRef-lossSes) > 1e-12*(1+math.Abs(lossRef)) {
		t.Fatalf("backward loss %v vs %v", lossSes, lossRef)
	}
	for pi, p := range ref.params {
		q := ses.params[pi]
		for i := range p.Grad.Data {
			if math.Abs(p.Grad.Data[i]-q.Grad.Data[i]) > 1e-12 {
				t.Fatalf("%s grad[%d]: ref %v vs session %v", p.Name, i, p.Grad.Data[i], q.Grad.Data[i])
			}
		}
	}
}

// TestTrainSessionCapacityPanic documents the capacity contract.
func TestTrainSessionCapacityPanic(t *testing.T) {
	m, err := New(tinyConfig(23), []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := m.NewTrainSession(4)
	if ts.Cap() != 4 {
		t.Fatalf("Cap = %d", ts.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized batch did not panic")
		}
	}()
	ts.Step(randBatch(rand.New(rand.NewSource(1)), []int{3, 3}, 5), 0)
}

// benchModel builds a JOB-light-scale model for training benchmarks.
func benchModel(b *testing.B, seed int64) (*Model, [][]int32) {
	b.Helper()
	doms := []int{100, 50, 1000, 12, 2, 2, 2, 2, 2, 2, 30, 30, 500, 8}
	cfg := DefaultConfig()
	cfg.Seed = seed
	m, err := New(cfg, doms)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	return m, randBatch(rng, doms, 256)
}

// BenchmarkTrainStep compares one gradient step through the legacy
// per-call-allocating path and the zero-alloc TrainSession with
// prefix-structured kernels — the made-level before/after of the
// training-path overhaul (EXPERIMENTS.md).
func BenchmarkTrainStep(b *testing.B) {
	b.Run("legacy", func(b *testing.B) {
		m, batch := benchModel(b, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.TrainStep(batch, 0.5)
		}
		b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
	})
	b.Run("session", func(b *testing.B) {
		m, batch := benchModel(b, 1)
		ts := m.NewTrainSession(len(batch))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts.Step(batch, 0.5)
		}
		b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
	})
}

// goldenTrainSHA is the SHA-256 of the float64 parameter bytes that
// trainGolden produces. It was recorded before the head phase ran as
// column tasks, when every head kernel was split row-wise across the pool
// instead; the same value at every pool size pins both the task-parallel
// heads and their ordered reductions to the earlier weights bit for bit.
const goldenTrainSHA = "575370fa2b71237b8cfb9f0d418fa819d5000799ae4f73e12998f41b7aa1f320"

// goldenShape is a model with uneven heads (domains 2 to 300, three
// domain-2 columns) and batches large enough that every trunk kernel splits
// into row chunks on a parallel pool.
func goldenShape(t testing.TB) (*Model, *TrainSession) {
	t.Helper()
	doms := []int{300, 2, 57, 12, 2, 2, 100, 30, 8, 2}
	m, err := New(Config{EmbedDim: 8, Hidden: 64, Blocks: 2, LR: 3e-3, ClipNorm: 5, Seed: 5}, doms)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.NewTrainSession(96)
}

// paramSHA hashes every parameter value's IEEE-754 bits in parameter order.
func paramSHA(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.params {
		for _, v := range p.Val.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainSessionGoldenWeights trains the golden shape for 25 wildcard-
// masked steps of varying batch size on pools of 1, 2 and 4 slots, running
// the heads on as many slots, and requires the recorded parameter hash
// every time.
func TestTrainSessionGoldenWeights(t *testing.T) {
	var losses []float64
	for _, slots := range []int{1, 2, 4} {
		m, ts := goldenShape(t)
		ts.pool = nn.NewPool(slots)
		ts.slots = make([]headSlot, slots)
		rng := rand.New(rand.NewSource(11))
		loss := 0.0
		for step := 0; step < 25; step++ {
			loss = ts.Step(randBatch(rng, m.doms, 70+rng.Intn(27)), 0.5)
		}
		if got := paramSHA(m); got != goldenTrainSHA {
			t.Errorf("%d slots: parameter SHA-256 %s, want %s", slots, got, goldenTrainSHA)
		}
		losses = append(losses, loss)
	}
	for i, l := range losses {
		if l != losses[0] {
			t.Errorf("final loss %v at pool size index %d, want %v as on 1 slot", l, i, losses[0])
		}
	}
}

// seedStepAllocs is the steady-state allocation count of one Step on the
// golden shape at a full 96-row batch with a 2-slot pool, measured when
// every head kernel was a separate row-parallel pool dispatch.
const seedStepAllocs = 206

// TestTrainSessionStepAllocs pins the steady-state allocations of a
// 2-slot Step at no more than that count.
func TestTrainSessionStepAllocs(t *testing.T) {
	m, ts := goldenShape(t)
	ts.pool = nn.NewPool(2)
	batch := randBatch(rand.New(rand.NewSource(11)), m.doms, 96)
	ts.Step(batch, 0.5) // warm the pool's workers
	got := testing.AllocsPerRun(20, func() { ts.Step(batch, 0.5) })
	t.Logf("%v allocs per 2-slot step (earlier row-parallel heads: %d)", got, seedStepAllocs)
	if got > seedStepAllocs {
		t.Fatalf("%v allocs per step, want at most %d", got, seedStepAllocs)
	}
}
