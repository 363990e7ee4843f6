package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"neurocard/internal/faultinject"
	"neurocard/internal/made"
	"neurocard/internal/query"
	"neurocard/internal/sampler"
	"neurocard/internal/schema"
)

// ErrEstimatePanic wraps a panic recovered inside one estimate: the serving
// paths convert it into a positional error for that query instead of letting
// it kill the process (or a coalescer fuser). The session the panic ran on is
// discarded, not pooled, since its scratch may be mid-mutation.
var ErrEstimatePanic = errors.New("core: estimate panicked")

// Config assembles a NeuroCard estimator.
type Config struct {
	Model made.Config

	// FactBits is the §5 factorization budget in bits per subcolumn;
	// 0 disables factorization.
	FactBits int

	// ContentCols selects the modeled columns per table. Nil models every
	// non-join-key column.
	ContentCols map[string][]string

	// Training.
	BatchSize      int     // tuples per gradient step
	WildcardProb   float64 // wildcard-skipping masking probability per tuple
	SamplerWorkers int     // parallel join-sampling threads feeding training
	Seed           int64

	// PSamples is the number of progressive samples per Estimate call.
	PSamples int

	// PlanCache bounds the compiled-plan LRU cache (entries); 0 selects the
	// default capacity. Repeated query shapes — the serving norm — skip
	// planning entirely on a hit.
	PlanCache int

	// Precision selects the serving element width (DESIGN.md §1.4). The
	// zero value serves at float64, aliasing the trainable parameters;
	// PrecisionFloat32 serves on a float32 kernel set converted once at
	// load. Training and checkpoints are float64 regardless.
	Precision Precision
}

// DefaultConfig returns a configuration scaled for CPU training, mirroring
// the paper's base setup (batch 2048 scaled down, 512 progressive samples,
// wildcard skipping on).
func DefaultConfig() Config {
	return Config{
		Model:          made.DefaultConfig(),
		FactBits:       12,
		BatchSize:      512,
		WildcardProb:   0.5,
		SamplerWorkers: 4,
		Seed:           1,
		PSamples:       512,
	}
}

// Estimator is a NeuroCard join cardinality estimator: one autoregressive
// density model over the full outer join of all tables in a schema,
// answering queries over any connected subset of tables.
type Estimator struct {
	domain *schema.Schema // defines dictionaries / token spaces
	data   *schema.Schema // current snapshot being modeled
	enc    *Encoder
	view   *dataView
	smp    *sampler.Sampler

	model     ProbSource
	trainable *made.Model // nil when model is an external source (oracle)

	joinSize float64
	cfg      Config
	rng      *rand.Rand // training-time randomness only; never used by Estimate

	eng     engine       // serving engine: session pool at the configured precision
	plans   *planCache   // compiled plans keyed by canonical query bytes
	qcount  atomic.Int64 // per-query seed counter for Estimate
	dataGen atomic.Int64 // snapshot generation: bumped by every UpdateData*
}

// initSessions wires the per-estimator serving runtime: a session pool at
// the configured serving precision, bound to the estimator's conditional
// source — MADE models get native zero-alloc sessions (float64 views alias
// the trainable parameters; float32 sessions share the model's converted
// snapshot), anything else (e.g. the exact oracle) goes through the float64
// generic adapter — plus the compiled-plan cache shared by all sessions.
// Plans carry no element-width state, so the cache survives a precision
// switch (SetPrecision re-runs only the pool wiring).
func (e *Estimator) initSessions() {
	if e.plans == nil {
		e.plans = newPlanCache(e.cfg.PlanCache)
	}
	m, isMade := e.model.(*made.Model)
	if e.cfg.Precision.resolve() == PrecisionFloat32 && isMade {
		e.eng = &poolEngine[float32]{e: e, pool: newSessionPool(func(rows int) inferSession[float32] {
			return m.NewInferSession32(rows)
		})}
		return
	}
	e.eng = &poolEngine[float64]{e: e, pool: newSessionPool(func(rows int) inferSession[float64] {
		if isMade {
			return m.NewInferSession(rows)
		}
		return newGenericSession(e.model, rows)
	})}
}

// Build constructs an untrained estimator over the schema: prepares the join
// sampler (join count tables), derives the encoder, and initializes the
// model. The same schema serves as domain and initial data snapshot.
func Build(sch *schema.Schema, cfg Config) (*Estimator, error) {
	return BuildWithDomain(sch, sch, cfg)
}

// BuildWithDomain separates the dictionary-defining domain schema from the
// data snapshot to model — the setup for the §7.6 update study, where
// partitioned snapshots of a database share the full database's
// dictionaries.
func BuildWithDomain(domain, data *schema.Schema, cfg Config) (*Estimator, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.PSamples <= 0 {
		cfg.PSamples = 512
	}
	if cfg.SamplerWorkers <= 0 {
		cfg.SamplerWorkers = 1
	}
	prec, err := ParsePrecision(string(cfg.Precision))
	if err != nil {
		return nil, err
	}
	cfg.Precision = prec
	enc, err := NewEncoder(domain, cfg.ContentCols, cfg.FactBits)
	if err != nil {
		return nil, err
	}
	model, err := made.New(cfg.Model, enc.FlatDomains())
	if err != nil {
		return nil, err
	}
	e := &Estimator{
		domain:    domain,
		enc:       enc,
		model:     model,
		trainable: model,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	e.initSessions()
	if err := e.UpdateData(data); err != nil {
		return nil, err
	}
	e.plans.invalidations.Store(0) // construction is not an invalidation
	return e, nil
}

// NewFromParts wires an estimator around an externally provided conditional
// source (e.g. the exact oracle) for testing inference algorithms in
// isolation from training.
func NewFromParts(domain, data *schema.Schema, enc *Encoder, src ProbSource, cfg Config) (*Estimator, error) {
	if src.NumCols() != enc.NumFlat() {
		return nil, fmt.Errorf("core: source has %d columns, encoder %d", src.NumCols(), enc.NumFlat())
	}
	if cfg.PSamples <= 0 {
		cfg.PSamples = 512
	}
	prec, err := ParsePrecision(string(cfg.Precision))
	if err != nil {
		return nil, err
	}
	if prec == PrecisionFloat32 {
		if _, ok := src.(*made.Model); !ok {
			return nil, fmt.Errorf("core: float32 serving requires a MADE model (conditional source %T serves float64 only)", src)
		}
	}
	cfg.Precision = prec
	e := &Estimator{
		domain: domain,
		enc:    enc,
		model:  src,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	e.initSessions()
	if err := e.UpdateData(data); err != nil {
		return nil, err
	}
	e.plans.invalidations.Store(0) // construction is not an invalidation
	return e, nil
}

// UpdateData points the estimator at a new data snapshot: join counts are
// recomputed (seconds, linear in data) and the fanout/content accessors are
// rebound. The model is untouched — follow with Train for an incremental
// update or retrain from scratch (§7.6's fast-update vs retrain).
func (e *Estimator) UpdateData(data *schema.Schema) error {
	view, err := e.enc.bind(data)
	if err != nil {
		return err
	}
	smp, err := sampler.New(data)
	if err != nil {
		return err
	}
	e.swapSnapshot(data, view, smp)
	return nil
}

// UpdateDataAppend is UpdateData for the ingest path: data must extend the
// current snapshot by appended rows (shared dictionaries, current rows as a
// prefix of every table — what ingest.Apply produces). The join counts are
// maintained incrementally (cost proportional to the appended rows and the
// ancestor rows they touch, not the dataset), with a result bit-identical to
// the full recompute UpdateData performs.
func (e *Estimator) UpdateDataAppend(data *schema.Schema) error {
	view, err := e.enc.bind(data)
	if err != nil {
		return err
	}
	smp, err := sampler.NewAppended(e.smp, data)
	if err != nil {
		return err
	}
	e.swapSnapshot(data, view, smp)
	return nil
}

func (e *Estimator) swapSnapshot(data *schema.Schema, view *dataView, smp *sampler.Sampler) {
	e.data = data
	e.view = view
	e.smp = smp
	e.joinSize = smp.JoinSize()
	e.dataGen.Add(1)
	// Compiled plans depend only on the domain schema's dictionaries and the
	// encoder, both of which a snapshot rebind leaves untouched — but a data
	// swap is rare and cold, so drop the cache defensively anyway. The drop is
	// counted: operators watching plan-cache hit rates need to tell routine
	// eviction from refresh-driven invalidation.
	e.plans.invalidate()
}

// DataGeneration returns the number of data-snapshot swaps this estimator has
// absorbed (1 after construction; each UpdateData/UpdateDataAppend adds one).
func (e *Estimator) DataGeneration() int64 { return e.dataGen.Load() }

// RebaseAppended promotes the current data snapshot to be the estimator's
// domain schema, re-deriving the encoder over it — the step that makes an
// estimator checkpointable again after UpdateDataAppend (checkpoints require
// domain == data). It succeeds only when the appended rows left the encoder
// shape unchanged: dictionaries are frozen by the ingest contract, but a new
// row can raise a join key's fanout beyond the old domain maximum, in which
// case the trained model no longer matches the re-derived shape and the
// caller must fall back to serving in memory (estimates stay valid — the
// encoder clamps out-of-domain fanouts) and retrain before checkpointing.
func (e *Estimator) RebaseAppended() error {
	if e.domain == e.data {
		return nil
	}
	enc, err := NewEncoder(e.data, e.cfg.ContentCols, e.cfg.FactBits)
	if err != nil {
		return fmt.Errorf("core: rebase: %w", err)
	}
	if err := equalDoms(enc.FlatDomains(), e.enc.FlatDomains()); err != nil {
		return fmt.Errorf("core: rebase: appended rows changed the encoder shape (fanout domain grew): %w", err)
	}
	view, err := enc.bind(e.data)
	if err != nil {
		return fmt.Errorf("core: rebase: %w", err)
	}
	e.domain = e.data
	e.enc = enc
	e.view = view
	// Plans hold references into the old encoder; recompile against the new one.
	e.plans.invalidate()
	return nil
}

// JoinSize returns |J| of the current snapshot's full outer join.
func (e *Estimator) JoinSize() float64 { return e.joinSize }

// Schema returns the data snapshot the estimator currently models — the
// serving layer uses it to build always-available fallback estimators (e.g.
// per-column histograms) next to the model.
func (e *Estimator) Schema() *schema.Schema { return e.data }

// Config returns the estimator's configuration (as normalized by Build or
// restored from a checkpoint).
func (e *Estimator) Config() Config { return e.cfg }

// SessionPoolStats reports the inference-session pool's free and checked-out
// counts — the serving daemon's occupancy metric.
func (e *Estimator) SessionPoolStats() (free, inUse int) { return e.eng.stats() }

// NumTables returns the number of tables in the modeled schema.
func (e *Estimator) NumTables() int { return e.domain.NumTables() }

// Encoder exposes the column encoding (for tools and diagnostics).
func (e *Estimator) Encoder() *Encoder { return e.enc }

// Model returns the trainable model, or nil for oracle-backed estimators.
func (e *Estimator) Model() *made.Model { return e.trainable }

// Bytes reports the model size using the paper's float32 accounting.
func (e *Estimator) Bytes() int {
	if e.trainable == nil {
		return 0
	}
	return e.trainable.Bytes()
}

// tailMean returns the mean of the final 10% of per-step losses.
func tailMean(tail []float64) float64 {
	n := len(tail) / 10
	if n < 1 {
		n = 1
	}
	sum := 0.0
	for _, l := range tail[len(tail)-n:] {
		sum += l
	}
	return sum / float64(n)
}

// Train streams approximately nTuples uniform samples of the full outer join
// through the model (maximum likelihood, §3.2). Sampling runs on
// cfg.SamplerWorkers goroutines concurrently with gradient computation,
// mirroring the paper's background sampling threads; batch buffers cycle
// through a fixed ring and gradient steps run on a reusable made.TrainSession,
// so the steady-state loop allocates nothing per step.
//
// Batch k's content is derived from (seed, k) alone and batches are
// consumed in sequence order, so the training trajectory is fully
// determined by the configured seed — independent of the sampler worker
// count and goroutine scheduling. It returns the mean training loss
// (nats/tuple) over the final 10% of steps.
func (e *Estimator) Train(nTuples int) (float64, error) {
	if e.trainable == nil {
		return 0, fmt.Errorf("core: estimator has no trainable model")
	}
	steps := (nTuples + e.cfg.BatchSize - 1) / e.cfg.BatchSize
	if steps < 1 {
		steps = 1
	}
	ts := e.trainable.NewTrainSession(e.cfg.BatchSize)
	batches, free := e.streamBatches(steps)
	// Reorder ring: workers finish out of order, gradient steps must not.
	// In-flight indexes always span < ringSlots (each holds a distinct ring
	// buffer), so slot collisions are impossible.
	slots := e.ringSlots()
	pending := make([]*trainBatch, slots)
	next := int64(0)
	tail := make([]float64, 0, steps)
	for tb := range batches {
		pending[tb.idx%int64(slots)] = tb
		for {
			nb := pending[next%int64(slots)]
			if nb == nil || nb.idx != next {
				break
			}
			pending[next%int64(slots)] = nil
			tail = append(tail, ts.Step(nb.toks, e.cfg.WildcardProb))
			free <- nb
			next++
		}
	}
	return tailMean(tail), nil
}

// TrainWithDraw trains on join rows produced by a custom draw function (in
// sampler table order, sampler.NullRow for NULL) instead of the unbiased
// Exact-Weight sampler. Used by the Table 5 (A) ablation, which feeds the
// model IBJS-style biased samples to measure the cost of violating the §4
// uniformity requirement.
func (e *Estimator) TrainWithDraw(nTuples int, draw func(rng *rand.Rand, out []int32)) (float64, error) {
	if e.trainable == nil {
		return 0, fmt.Errorf("core: estimator has no trainable model")
	}
	steps := (nTuples + e.cfg.BatchSize - 1) / e.cfg.BatchSize
	rng := rand.New(rand.NewSource(e.rng.Int63()))
	ts := e.trainable.NewTrainSession(e.cfg.BatchSize)
	tb := e.newTrainBatch()
	tail := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		for i := range tb.rows {
			draw(rng, tb.rows[i])
		}
		e.enc.encodeRowsInto(e.view, tb.rows, tb.toks)
		tail = append(tail, ts.Step(tb.toks, e.cfg.WildcardProb))
	}
	return tailMean(tail), nil
}

// trainBatch is one slot of the training batch ring: sampled join rows and
// their encoded model tokens, both fully overwritten each reuse, plus the
// batch's position in the deterministic training sequence.
type trainBatch struct {
	idx  int64     // sequence number; content is a pure function of (seed, idx)
	rows [][]int32 // sampler table order
	toks [][]int32 // flat model tokens
}

// ringSlots is the training ring size: enough for every sampler worker to
// hold one buffer plus two queued ahead of the trainer.
func (e *Estimator) ringSlots() int { return e.cfg.SamplerWorkers + 2 }

// newTrainBatch allocates one ring slot sized for the configured batch.
func (e *Estimator) newTrainBatch() *trainBatch {
	bs := e.cfg.BatchSize
	nt := len(e.smp.Tables())
	nflat := e.enc.NumFlat()
	tb := &trainBatch{rows: make([][]int32, bs), toks: make([][]int32, bs)}
	rowBacking := make([]int32, bs*nt)
	tokBacking := make([]int32, bs*nflat)
	for i := 0; i < bs; i++ {
		tb.rows[i] = rowBacking[i*nt : (i+1)*nt]
		tb.toks[i] = tokBacking[i*nflat : (i+1)*nflat]
	}
	return tb
}

// streamBatches launches sampler workers producing encoded training batches.
// Buffers circulate through the returned free channel instead of being
// allocated per step: the consumer must send each received batch back after
// its gradient step. The ring holds ringSlots() buffers so samplers can run
// ahead of the trainer without unbounded memory.
//
// Each batch is sampled from an RNG reseeded to mix(baseSeed, batchIdx), so
// its content depends only on the configured seed and its sequence number —
// never on which worker produced it. Workers claim a ring buffer before
// drawing an index, which guarantees the lowest outstanding index is always
// held by a running worker and the in-order consumer cannot starve the ring.
func (e *Estimator) streamBatches(steps int) (<-chan *trainBatch, chan<- *trainBatch) {
	workers := e.cfg.SamplerWorkers
	ch := make(chan *trainBatch, workers)
	free := make(chan *trainBatch, e.ringSlots())
	for i := 0; i < e.ringSlots(); i++ {
		free <- e.newTrainBatch()
	}
	var produced atomic.Int64
	var wg sync.WaitGroup
	baseSeed := e.rng.Int63()
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rand.NewSource(0)
			rng := rand.New(src)
			for {
				tb := <-free
				idx := produced.Add(1) - 1
				if idx >= int64(steps) {
					free <- tb
					return
				}
				src.Seed(mixSeed(baseSeed, idx))
				tb.idx = idx
				for i := range tb.rows {
					e.smp.Sample(rng, tb.rows[i])
				}
				e.enc.encodeRowsInto(e.view, tb.rows, tb.toks)
				ch <- tb
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch, free
}

// mixSeed derives a per-query RNG seed from the configured seed and a query
// index (splitmix64-style finalizer), so estimates depend only on (seed,
// index) — never on goroutine interleaving or shared RNG state.
func mixSeed(seed, idx int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Estimate returns the estimated cardinality of q using the configured
// number of progressive samples. Safe for concurrent use: each call draws a
// unique index from an atomic counter and runs on its own pooled session.
func (e *Estimator) Estimate(q query.Query) (float64, error) {
	return e.EstimateIndexed(q, e.qcount.Add(1))
}

// psamples returns the configured progressive-sample count, clamped so
// every estimation path draws at least one sample.
func (e *Estimator) psamples() int {
	if e.cfg.PSamples < 1 {
		return 1
	}
	return e.cfg.PSamples
}

// EstimateIndexed runs one estimate whose randomness is fully determined by
// the configured seed and idx, independent of concurrency and call order —
// the primitive EstimateBatch workers and parallel evaluation harnesses use
// to get run-to-run identical results.
func (e *Estimator) EstimateIndexed(q query.Query, idx int64) (float64, error) {
	st := e.eng.acquire(e.psamples(), false)
	defer st.release()
	return st.estimateSeeded(context.Background(), q, e.cfg.Seed, idx)
}

// EstimateIndexedSerial is EstimateIndexed for callers that already run many
// estimates concurrently (parallel evaluation harnesses): the session
// executes its kernels inline, so W concurrent callers schedule W goroutines
// instead of W × kernel chunks. Results are identical to EstimateIndexed —
// kernel results do not depend on chunking.
func (e *Estimator) EstimateIndexedSerial(q query.Query, idx int64) (float64, error) {
	st := e.eng.acquire(e.psamples(), true)
	defer st.release()
	return st.estimateSeeded(context.Background(), q, e.cfg.Seed, idx)
}

// estimateSeeded is the shared single-query path over a held session — plan,
// empty-region shortcut, index-derived RNG, sampling — with an explicit base
// seed: the query's randomness is fully determined by (seed, idx). The
// serving API uses this to honor client-supplied seeds without touching the
// configured seed. ctx is checked cooperatively between sampling steps, so a
// request whose deadline expires mid-sampling returns ctx.Err() promptly
// instead of finishing the whole progressive-sampling pass.
func (st *inferStateOf[T]) estimateSeeded(ctx context.Context, q query.Query, seed, idx int64) (float64, error) {
	if faultinject.Enabled() {
		faultinject.MaybePanicEstimate()
	}
	cp, err := st.planFor(q)
	if err != nil {
		return 0, err
	}
	if cp.empty {
		// A filter matches no dictionary value: true cardinality is 0; the
		// Q-error convention lower-bounds estimates at 1.
		return 1, nil
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, idx)))
	est, err := st.sample(ctx, cp, st.e.psamples(), rng)
	if err != nil {
		return 0, err
	}
	if faultinject.Enabled() && faultinject.MaybeNaNEstimate() {
		est = math.NaN()
	}
	return est, nil
}

// estimateSafe runs estimateSeeded under panic recovery: a panic anywhere in
// planning or sampling — including one re-raised from a kernel-pool chunk —
// becomes an ErrEstimatePanic-wrapped error. The caller must treat a
// panicked=true return as poisoning the session (discard it, do not pool it).
func (st *inferStateOf[T]) estimateSafe(ctx context.Context, q query.Query, seed, idx int64) (est float64, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			est, err, panicked = 0, fmt.Errorf("%w: %v", ErrEstimatePanic, r), true
		}
	}()
	est, err = st.estimateSeeded(ctx, q, seed, idx)
	return est, err, false
}

// EstimateBatch estimates all queries concurrently on up to `workers`
// goroutines (≤ 0 means GOMAXPROCS), each owning one inference session for
// its lifetime. Query i is seeded by (cfg.Seed, i), so results are identical
// run to run regardless of scheduling. Returns estimates aligned with
// queries and the first error encountered (by query index).
func (e *Estimator) EstimateBatch(queries []query.Query, workers int) ([]float64, error) {
	return e.EstimateBatchSeeded(queries, workers, e.cfg.Seed)
}

// EstimateBatchSeeded is EstimateBatch with an explicit base seed: query i's
// randomness derives from (seed, i) instead of (config seed, i). The serving
// API uses it to give clients reproducible batch estimates on demand.
func (e *Estimator) EstimateBatchSeeded(queries []query.Query, workers int, seed int64) ([]float64, error) {
	items := make([]BatchItem, len(queries))
	for i, q := range queries {
		items[i] = BatchItem{Query: q, Seed: seed, Idx: int64(i)}
	}
	ests, errs := e.EstimateItems(items, workers)
	for _, err := range errs {
		if err != nil {
			return ests, err
		}
	}
	return ests, nil
}

// BatchItem is one query of a fused batch that carries its own randomness
// source, so queries from independent callers can share a batch run without
// their results depending on who else is in the batch. A seeded serving
// request that would run alone as EstimateSeededIndexed(q, seed, 0) fuses as
// {Query: q, Seed: seed, Idx: 0} and produces the identical estimate.
type BatchItem struct {
	Query query.Query
	Seed  int64 // base seed; ignored when Auto
	Idx   int64 // RNG stream index under Seed; ignored when Auto
	// Auto draws (config seed, next atomic query index) at execution time —
	// the unseeded Estimate() semantics for callers that want a fresh
	// independent sample per call.
	Auto bool
	// Ctx, when non-nil, bounds this item: an item whose context is already
	// done fails positionally without running, and expiry mid-sampling is
	// detected between sampling steps. Items from independent requests fused
	// into one batch each keep their own deadline.
	Ctx context.Context
}

// EstimateItems estimates every item on up to `workers` pooled sessions
// (≤ 0 means GOMAXPROCS) and returns estimates and errors aligned with
// items: one bad query fails positionally instead of poisoning the batch.
// Item randomness comes from each item's own (Seed, Idx) pair, so results
// are independent of batch composition, worker count, and scheduling — the
// property the serving daemon's cross-request coalescer is built on.
//
// Fault containment: a panic inside any item's estimate is recovered into an
// ErrEstimatePanic positional error (the worker swaps its possibly-poisoned
// session for a fresh one and keeps going), and an item whose Ctx is done
// fails with its context error — before starting when already expired, or at
// the next inter-step check when it expires mid-sampling.
func (e *Estimator) EstimateItems(items []BatchItem, workers int) ([]float64, []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	ests := make([]float64, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// With several workers, each runs its kernels inline so the
			// batch never schedules workers × kernel-chunk goroutines.
			serial := workers > 1
			st := e.eng.acquire(e.psamples(), serial)
			defer func() { st.release() }()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := &items[i]
				ctx := it.Ctx
				if ctx == nil {
					ctx = context.Background()
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				seed, idx := it.Seed, it.Idx
				if it.Auto {
					seed, idx = e.cfg.Seed, e.qcount.Add(1)
				}
				var panicked bool
				ests[i], errs[i], panicked = st.estimateSafe(ctx, it.Query, seed, idx)
				if panicked {
					st.discard()
					st = e.eng.acquire(e.psamples(), serial)
				}
			}
		}()
	}
	wg.Wait()
	return ests, errs
}

// EstimateSeededIndexed runs one estimate whose randomness derives from the
// caller's (seed, idx) pair — the value a seeded serving request reproduces
// whether it runs alone or fused into a batch.
func (e *Estimator) EstimateSeededIndexed(q query.Query, seed, idx int64) (float64, error) {
	st := e.eng.acquire(e.psamples(), false)
	defer st.release()
	return st.estimateSeeded(context.Background(), q, seed, idx)
}
