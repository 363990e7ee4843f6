package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one chunk of a parallel loop handed to a pool worker.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	box    *syncBox
}

// syncBox is the per-parallel-call synchronization state: the WaitGroup the
// dispatched chunks report to, plus the first panic any chunk raised. It is
// the single heap allocation a dispatching parallel call was already paying
// for its escaping WaitGroup.
//
// Panic containment: a panic inside a worker-run chunk must not kill the
// worker goroutine (which would crash the whole process — workers have no
// caller to recover them). Instead every chunk, worker- or caller-run, stores
// its panic value in the box and the dispatching caller re-raises it after
// wg.Wait, when all sibling chunks have finished touching the output buffers.
// The panic therefore surfaces on the goroutine that asked for the work — in
// serving, that is an estimate worker with a recover() that converts it into
// a positional error — and the pool stays fully usable.
type syncBox struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	pan any
}

// setPanic records the first panic raised by any chunk of the call.
func (b *syncBox) setPanic(r any) {
	b.mu.Lock()
	if b.pan == nil {
		b.pan = r
	}
	b.mu.Unlock()
}

// run executes one dispatched chunk under panic capture and reports done.
func (t task) run() {
	defer t.box.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			t.box.setPanic(r)
		}
	}()
	t.fn(t.lo, t.hi)
}

// runInline executes the caller's own chunk under the same panic capture but
// without a Done (the caller chunk is never Added): the caller must still
// wg.Wait for workers before re-raising, or it would unwind while sibling
// chunks write into shared buffers.
func (t task) runInline() {
	defer func() {
		if r := recover(); r != nil {
			t.box.setPanic(r)
		}
	}()
	t.fn(t.lo, t.hi)
}

// finish waits for every dispatched chunk and re-raises the first captured
// panic on the calling goroutine.
func (b *syncBox) finish() {
	b.wg.Wait()
	if b.pan != nil {
		panic(b.pan)
	}
}

// Pool executes kernel loops across a fixed set of persistent worker
// goroutines. The calling goroutine always participates (it runs the final
// chunk and any chunk the workers cannot absorb), so a Pool with parallelism
// p uses the caller plus p-1 workers and can never deadlock: if the task
// queue is full — e.g. many concurrent sessions share one pool — excess
// chunks simply run inline on the caller.
//
// Workers are started lazily on the first parallel call and live for the
// process lifetime; submitting a chunk is a channel send, not a goroutine
// spawn, which is what makes small training-step kernels cheap to
// parallelize.
//
// Chunk boundaries depend only on n and the pool's parallelism, and every
// output element is produced entirely within one chunk, so results are
// independent of which goroutine runs which chunk.
type Pool struct {
	// par is the max parallelism including the caller; 0 means "resolve to
	// GOMAXPROCS at first use". Atomic because cold pools may be touched
	// concurrently: the first parallel call pins par inside the once while
	// kernels on other goroutines read it (parallelism/inline) without
	// having passed through that once yet.
	par   atomic.Int32
	once  sync.Once
	tasks chan task
}

// NewPool returns a pool with the given maximum parallelism (caller plus
// par-1 persistent workers). par < 1 selects GOMAXPROCS.
func NewPool(par int) *Pool {
	p := &Pool{}
	if par >= 1 {
		p.par.Store(int32(par))
	}
	return p
}

// Serial is the pool that runs every kernel inline on the calling goroutine.
// Sessions serving many concurrent queries use it to keep total goroutine
// count at one per worker instead of workers × kernel chunks.
var Serial = NewPool(1)

// defaultPool backs the package-level kernel functions.
var defaultPool = NewPool(0)

// Default returns the shared pool used by the package-level kernels, sized
// to GOMAXPROCS at first use.
func Default() *Pool { return defaultPool }

// parallelism resolves the pool's effective parallelism.
func (p *Pool) parallelism() int {
	if v := p.par.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// start launches the worker goroutines once.
func (p *Pool) start(par int) {
	p.once.Do(func() {
		// Pin the parallelism so chunking stays stable across GOMAXPROCS
		// changes.
		p.par.CompareAndSwap(0, int32(par))
		n := int(p.par.Load())
		p.tasks = make(chan task, 4*n)
		for w := 0; w < n-1; w++ {
			go func() {
				for t := range p.tasks {
					t.run()
				}
			}()
		}
	})
}

// minChunk is the smallest per-chunk row count worth parallelizing.
const minChunk = 16

// inline reports whether a loop over n rows runs directly on the caller (a
// serial pool, a single-CPU configuration, or too little work to chunk).
// Kernels check it before building their parallel closure, so the serial
// hot path allocates nothing at all.
func (p *Pool) inline(n int) bool {
	return n < 2*minChunk || p.parallelism() <= 1
}

// parallelFor splits [0, n) into chunks across the pool. Small n (or a
// serial pool) runs inline.
func (p *Pool) parallelFor(n int, fn func(lo, hi int)) {
	par := p.parallelism()
	if par <= 1 || n < 2*minChunk {
		fn(0, n)
		return
	}
	if par > n/minChunk {
		par = n / minChunk
	}
	p.start(p.parallelism())
	chunk := (n + par - 1) / par
	box := &syncBox{}
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		box.wg.Add(1)
		t := task{fn: fn, lo: lo, hi: lo + chunk, box: box}
		select {
		case p.tasks <- t:
		default: // queue full: run the chunk inline instead of blocking
			t.run()
		}
	}
	task{fn: fn, lo: lo, hi: n, box: box}.runInline() // the caller always takes the last chunk
	box.finish()
}

// parallelForSum is parallelFor for reduction loops: fn returns its chunk's
// partial sum and the partials are combined in chunk order, so the result is
// deterministic for a fixed parallelism. The serial path performs no
// allocation at all.
func (p *Pool) parallelForSum(n int, fn func(lo, hi int) float64) float64 {
	par := p.parallelism()
	if par <= 1 || n < 2*minChunk {
		return fn(0, n)
	}
	if par > n/minChunk {
		par = n / minChunk
	}
	p.start(p.parallelism())
	chunk := (n + par - 1) / par
	nchunks := (n + chunk - 1) / chunk
	sums := make([]float64, nchunks)
	box := &syncBox{}
	lo, ci := 0, 0
	for ; lo+chunk < n; lo, ci = lo+chunk, ci+1 {
		box.wg.Add(1)
		t := task{lo: lo, hi: lo + chunk, box: box}
		slot := &sums[ci]
		t.fn = func(lo, hi int) { *slot = fn(lo, hi) }
		select {
		case p.tasks <- t:
		default:
			t.run()
		}
	}
	last := &sums[ci]
	task{fn: func(lo, hi int) { *last = fn(lo, hi) }, lo: lo, hi: n, box: box}.runInline()
	box.finish()
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total
}

// RunTasks runs fn(slot, i) once for every task i in [0, n), spreading the
// tasks over min(parallelism, maxSlots, n) goroutines: the caller takes
// slot 0 and each participating worker one further slot, so slot indexes
// stay below maxSlots and a caller can size per-slot scratch by it. Every
// slot claims the next unstarted task from a shared counter until none
// remain, so uneven tasks balance dynamically; callers that order tasks
// largest first get the best balance. Calls sharing a slot index never
// overlap, which lets fn use per-slot scratch without locks. Which slot
// runs which task varies from call to call, so a task's result must not
// depend on its slot. Panics are contained and re-raised on the caller as
// in parallelFor.
func (p *Pool) RunTasks(n, maxSlots int, fn func(slot, i int)) {
	par := min(p.parallelism(), maxSlots, n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.start(p.parallelism())
	var next atomic.Int64
	drain := func(slot, _ int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(slot, i)
		}
	}
	box := &syncBox{}
	for slot := 1; slot < par; slot++ {
		box.wg.Add(1)
		t := task{fn: drain, lo: slot, box: box}
		select {
		case p.tasks <- t:
		default: // queue full: the caller drains this slot's share itself
			t.run()
		}
	}
	task{fn: drain, lo: 0, box: box}.runInline()
	box.finish()
}
