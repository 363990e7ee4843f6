package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/query"
)

// The request coalescer fuses concurrent single-query estimate requests into
// shared EstimateItems batches: one flush resolves the registry entry once,
// checks out pooled sessions once, and runs every fused query with its own
// (seed, idx) randomness, so coalescing never changes any individual result
// (a seeded request fused into a batch of 40 returns the bit-identical
// estimate it would have returned alone). Each model name has one fuser
// goroutine; requests enqueue into a bounded channel (admission control —
// a full queue answers 429 + Retry-After instead of growing latency without
// bound) and the fuser collects up to FuseMaxBatch queries or an adaptive
// latency window before flushing. The window tracks load: it opens toward
// FuseWindow while flushes are fusing many requests and decays to zero when
// traffic is a trickle, so an idle server's p50 never pays the batching
// budget. See DESIGN.md §2.5.

// Clock abstracts the coalescer's window timer so tests can hold a flush
// open deterministically. The zero Config uses the real time package.
type Clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Coalescer sentinel errors, mapped onto HTTP statuses by the handler.
var (
	// errSaturated reports an admission-control rejection: the model's
	// pending queue is full. Handlers answer 429 with Retry-After.
	errSaturated = errors.New("server: estimate queue saturated, retry later")
	// errClosing reports a request caught in server shutdown.
	errClosing = errors.New("server: shutting down")
	// errNonFinite reports an estimate that failed the finiteness check —
	// an internal model error, not a caller mistake.
	errNonFinite = errors.New("server: non-finite estimate")
	// errBreakerOpen reports a request short-circuited by an open model
	// circuit with no fallback estimator to absorb it.
	errBreakerOpen = errors.New("server: model circuit open and no fallback estimator configured")
)

// fuseAdaptRamp is the fused-batch-size EWMA at which the adaptive window
// reaches its full configured budget; below it the window scales linearly
// down to zero at an EWMA of 1 (pure single-request trickle).
const fuseAdaptRamp = 16.0

// pendingEstimate is one enqueued single-query request waiting for a fused
// flush. Pooled: the done channel is reused across requests. ctx carries the
// request's deadline into the fused batch, so one slow straggler can expire
// mid-flush without touching its batchmates.
type pendingEstimate struct {
	q    query.Query
	ctx  context.Context
	seed int64
	auto bool // unseeded: draw (config seed, fresh index) at execution
	done chan fuseResult
}

type fuseResult struct {
	est float64
	err error
}

var pendingPool = sync.Pool{
	New: func() any { return &pendingEstimate{done: make(chan fuseResult, 1)} },
}

// fuser coalesces single-query requests addressed to one model name. The
// registry entry is resolved per flush, not per fuser, so hot swaps take
// effect on the very next batch.
type fuser struct {
	s     *Server
	model string
	queue chan *pendingEstimate

	ewma      float64      // fused-batch-size EWMA; loop goroutine only
	window    atomic.Int64 // current adaptive window, ns (metrics read it)
	collected atomic.Int64 // lifetime pendings admitted to a batch (tests poll it)
}

// fuserFor returns the model's fuser, starting its loop on first use.
func (s *Server) fuserFor(model string) *fuser {
	if f, ok := s.fusers.Load(model); ok {
		return f.(*fuser)
	}
	f := &fuser{
		s:     s,
		model: model,
		queue: make(chan *pendingEstimate, s.cfg.FuseQueue),
		ewma:  1,
	}
	// Start fully open: the first flushes under a fresh burst fuse
	// aggressively, and a trickle load decays the window to zero within a
	// few flushes (see adapt).
	f.window.Store(int64(s.cfg.FuseWindow))
	if actual, loaded := s.fusers.LoadOrStore(model, f); loaded {
		return actual.(*fuser)
	}
	go f.run()
	return f
}

// coalesce submits one single-query estimate to the model's fuser and waits
// for its fused result. seed == nil requests an independent unseeded sample
// (Estimate semantics); a non-nil seed reproduces EstimateSeededIndexed(q,
// *seed, 0) exactly.
func (s *Server) coalesce(ctx context.Context, model string, q query.Query, seed *int64) (float64, error) {
	// The handler resolved the model before calling us (404 fast path); the
	// flush re-resolves so it always serves the freshest hot-swapped entry.
	p := pendingPool.Get().(*pendingEstimate)
	p.q = q
	p.ctx = ctx
	if seed != nil {
		p.seed, p.auto = *seed, false
	} else {
		p.seed, p.auto = 0, true
	}
	f := s.fuserFor(model)
	select {
	case f.queue <- p:
	default:
		pendingPool.Put(p)
		s.metrics.coalesceRejected.Add(1)
		return 0, errSaturated
	}
	select {
	case res := <-p.done:
		p.q = query.Query{} // drop references before pooling
		p.ctx = nil
		pendingPool.Put(p)
		return res.est, res.err
	case <-s.closing:
		// The pending stays un-pooled: the fuser may still write its done
		// channel after we stop listening.
		return 0, errClosing
	case <-ctx.Done():
		// Deadline expired (or the client hung up) while queued or fused.
		// The pending stays un-pooled for the same reason as above; the
		// fused item carries ctx, so its sampling stops cooperatively too.
		return 0, ctx.Err()
	}
}

// run is the fuser loop: block for the first pending, drain opportunistically,
// then hold the batch open for the adaptive window (or until full), flush,
// repeat. The flush runs inline — arrivals during a flush buffer in the
// queue and form the next batch, which is exactly the pipelining that keeps
// sessions busy without oversubscribing the kernels.
func (f *fuser) run() {
	// Blast-radius containment: a panic anywhere in the loop (the estimate
	// itself is additionally guarded in flush) restarts the fuser goroutine
	// instead of leaving the model with a dead coalescer — queued requests
	// keep their place and the next iteration drains them.
	defer func() {
		if r := recover(); r != nil {
			f.s.metrics.panicsTotal.Add(1)
			select {
			case <-f.s.closing:
			default:
				go f.run()
			}
		}
	}()
	maxBatch := f.s.cfg.FuseMaxBatch
	batch := make([]*pendingEstimate, 0, maxBatch)
	items := make([]core.BatchItem, 0, maxBatch)
	for {
		select {
		case p := <-f.queue:
			batch = append(batch[:0], p)
			f.collected.Add(1)
		case <-f.s.closing:
			return
		}
		// Opportunistic non-blocking drain: whatever queued while the
		// previous flush ran fuses immediately, no window needed.
	drain:
		for len(batch) < maxBatch {
			select {
			case p := <-f.queue:
				batch = append(batch, p)
				f.collected.Add(1)
			default:
				break drain
			}
		}
		// Hold the batch open for the adaptive window to give concurrent
		// requests a chance to fuse. Skipped entirely when the window has
		// decayed to zero (idle) or the batch is already full.
		if w := time.Duration(f.window.Load()); w > 0 && len(batch) < maxBatch {
			timer := f.s.cfg.Clock.After(w)
		collect:
			for len(batch) < maxBatch {
				select {
				case p := <-f.queue:
					batch = append(batch, p)
					f.collected.Add(1)
				case <-timer:
					break collect
				case <-f.s.closing:
					f.failAll(batch, errClosing)
					return
				}
			}
		}
		f.adapt(len(batch))
		f.flush(batch, items[:0])
	}
}

// adapt updates the fused-batch-size EWMA and derives the next window:
// full budget at an EWMA of fuseAdaptRamp or more, linearly down to zero at
// an EWMA of 1 — so sustained concurrency keeps the window open while an
// idle or trickle load stops paying the latency budget within a few flushes.
func (f *fuser) adapt(batchSize int) {
	const alpha = 0.25
	f.ewma = (1-alpha)*f.ewma + alpha*float64(batchSize)
	frac := (f.ewma - 1) / (fuseAdaptRamp - 1)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	f.window.Store(int64(frac * float64(f.s.cfg.FuseWindow)))
}

// flush resolves the model once, runs every pending query in a single
// EstimateItems call over the pooled sessions, and fans results back.
func (f *fuser) flush(batch []*pendingEstimate, items []core.BatchItem) {
	m := f.s.metrics
	m.fusedBatchSize.observe(float64(len(batch)))
	m.coalesceQueueDepth.observe(float64(len(f.queue)))
	m.coalesceWindow.observe(time.Duration(f.window.Load()).Seconds())

	entry, err := f.s.reg.Get(f.model)
	if err != nil {
		f.failAll(batch, err)
		return
	}
	for _, p := range batch {
		items = append(items, core.BatchItem{Query: p.q, Seed: p.seed, Auto: p.auto, Ctx: p.ctx})
	}
	ests, errs, panicErr := f.estimateItemsSafe(entry, items)
	if panicErr != nil {
		f.failAll(batch, panicErr)
		return
	}
	for i, p := range batch {
		p.done <- fuseResult{est: ests[i], err: errs[i]}
	}
}

// estimateItemsSafe runs the fused batch with a panic net. EstimateItems
// already converts per-item panics into positional errors; this guard is the
// second line of defense (a bug in EstimateItems itself, or in the registry
// entry) and turns a would-be fuser death into one failed batch. The recover
// fires before any done channel is written, so failAll never double-answers.
func (f *fuser) estimateItemsSafe(entry *Entry, items []core.BatchItem) (ests []float64, errs []error, panicErr error) {
	defer func() {
		if r := recover(); r != nil {
			f.s.metrics.panicsTotal.Add(1)
			panicErr = fmt.Errorf("%w: %v", core.ErrEstimatePanic, r)
		}
	}()
	ests, errs = entry.Est.EstimateItems(items, f.s.estimateWorkers(0, len(items)))
	return ests, errs, nil
}

// failAll answers every pending in batch with err.
func (f *fuser) failAll(batch []*pendingEstimate, err error) {
	for _, p := range batch {
		p.done <- fuseResult{err: err}
	}
}

// estimateWorkers bounds the concurrency of one estimate call: the client's
// requested workers (0 = server default = GOMAXPROCS), capped at the core
// count and the batch size.
func (s *Server) estimateWorkers(requested, batchLen int) int {
	maxWorkers := runtime.GOMAXPROCS(0)
	workers := requested
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if workers <= 0 || workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > batchLen {
		workers = batchLen
	}
	return workers
}

// CoalesceStats is a point-in-time snapshot of one model's fuser, surfaced
// on /metrics.
type CoalesceStats struct {
	Model      string
	QueueDepth int           // pendings waiting right now
	QueueCap   int           // admission-control bound
	Window     time.Duration // current adaptive collection window
}

// coalesceStats snapshots every active fuser, sorted by model name later by
// the metrics renderer (fusers iterates in map order).
func (s *Server) coalesceStats() []CoalesceStats {
	var out []CoalesceStats
	s.fusers.Range(func(k, v any) bool {
		f := v.(*fuser)
		out = append(out, CoalesceStats{
			Model:      k.(string),
			QueueDepth: len(f.queue),
			QueueCap:   cap(f.queue),
			Window:     time.Duration(f.window.Load()),
		})
		return true
	})
	return out
}
