package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/query"
	"neurocard/internal/schema"
	"neurocard/internal/shard"
	"neurocard/internal/table"
	"neurocard/internal/value"
)

// coalesceEstimator trains a small estimator for the white-box coalescer
// tests (the black-box suite has its own builder in package server_test).
func coalesceEstimator(t *testing.T, seed int64, tuples int) *core.Estimator {
	t.Helper()
	a := table.MustBuilder("A", []table.ColSpec{
		{Name: "x", Kind: value.KindInt},
		{Name: "year", Kind: value.KindInt},
	})
	a.MustAppend(value.Int(1), value.Int(1990))
	a.MustAppend(value.Int(2), value.Int(2000))
	a.MustAppend(value.Int(2), value.Null)
	b := table.MustBuilder("B", []table.ColSpec{
		{Name: "x", Kind: value.KindInt}, {Name: "y", Kind: value.KindInt},
	})
	b.MustAppend(value.Int(1), value.Int(1))
	b.MustAppend(value.Int(2), value.Int(2))
	b.MustAppend(value.Int(2), value.Int(3))
	c := table.MustBuilder("C", []table.ColSpec{{Name: "y", Kind: value.KindInt}})
	c.MustAppend(value.Int(3))
	c.MustAppend(value.Int(3))
	c.MustAppend(value.Int(4))
	sch, err := schema.New(
		[]*table.Table{a.MustBuild(), b.MustBuild(), c.MustBuild()},
		"A",
		[]schema.Edge{
			{LeftTable: "A", LeftCol: "x", RightTable: "B", RightCol: "x"},
			{LeftTable: "B", LeftCol: "y", RightTable: "C", RightCol: "y"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 24
	cfg.Model.EmbedDim = 6
	cfg.Model.Blocks = 1
	cfg.PSamples = 64
	cfg.BatchSize = 64
	cfg.Seed = seed
	cfg.ContentCols = map[string][]string{"A": {"x", "year"}, "B": {"x", "y"}, "C": {"y"}}
	est, err := core.Build(sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(tuples); err != nil {
		t.Fatal(err)
	}
	return est
}

// fakeClock is a Clock whose timers only fire when the test says so. Each
// After call signals afterCalled, so tests can sequence "fuser is now holding
// the window open" deterministically.
type fakeClock struct {
	mu          sync.Mutex
	pending     []chan time.Time
	afterCalled chan struct{}
}

func newFakeClock() *fakeClock {
	return &fakeClock{afterCalled: make(chan struct{}, 64)}
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.pending = append(c.pending, ch)
	c.mu.Unlock()
	c.afterCalled <- struct{}{}
	return ch
}

// fire releases every timer created so far.
func (c *fakeClock) fire() {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- time.Time{}
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCoalesceWindowFlushFusesBatch drives the window-timeout flush with a
// fake clock: the fuser holds the window open until the test fires the timer,
// several requests arrive meanwhile, and one fused flush answers all of them
// — each with the result it would have produced alone (seeded requests fuse
// as (seed, 0), bit-identical to EstimateSeededIndexed).
func TestCoalesceWindowFlushFusesBatch(t *testing.T) {
	clock := newFakeClock()
	srv := New(Config{
		ModelsDir:  t.TempDir(),
		FuseWindow: time.Hour, // effectively "until the test fires it"
		Clock:      clock,
	})
	defer srv.Close()
	est := coalesceEstimator(t, 7, 256)
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		t.Fatal(err)
	}

	queries := []query.Query{
		{Tables: []string{"A", "B", "C"}},
		{Tables: []string{"A"}, Filters: []query.Filter{
			{Table: "A", Col: "year", Op: query.OpGe, Val: value.Int(1995)}}},
		{Tables: []string{"B", "C"}},
		{Tables: []string{"A", "B"}},
	}
	seed := int64(41)
	ests := make([]float64, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup

	// First request: the fuser opens a batch and parks on the window timer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ests[0], errs[0] = srv.coalesce(context.Background(), "m", queries[0], &seed)
	}()
	<-clock.afterCalled
	f := srv.fuserFor("m")
	waitFor(t, "first request collected", func() bool { return f.collected.Load() == 1 })

	// The rest arrive while the window is open and must join the same batch.
	for i := 1; i < len(queries); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ests[i], errs[i] = srv.coalesce(context.Background(), "m", queries[i], &seed)
		}(i)
	}
	waitFor(t, "all requests collected", func() bool {
		return f.collected.Load() == int64(len(queries))
	})
	clock.fire()
	wg.Wait()

	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := est.EstimateSeededIndexed(q, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ests[i]-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("query %d: coalesced %.17g, alone %.17g — fusing changed the result", i, ests[i], want)
		}
	}

	// Exactly one flush of the full batch.
	m := srv.metrics
	if n := m.fusedBatchSize.samples.Load(); n != 1 {
		t.Fatalf("fused flushes = %d, want 1", n)
	}
	if s := m.fusedBatchSize.sum(); s != float64(len(queries)) {
		t.Fatalf("fused batch total = %g, want %d", s, len(queries))
	}
}

// TestCoalesceBackpressure fills a tiny coalescer queue whose fuser never
// drains (installed without a running loop) and checks admission control:
// the overflow request gets 429 + Retry-After, and the queued request gets
// 503 when the server shuts down.
func TestCoalesceBackpressure(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), FuseQueue: 1})
	est := coalesceEstimator(t, 7, 256)
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		t.Fatal(err)
	}
	// A dead fuser: requests enqueue, nothing ever flushes. fuserFor finds
	// it in the map and never starts a loop for it.
	srv.fusers.Store("m", &fuser{
		s:     srv,
		model: "m",
		queue: make(chan *pendingEstimate, srv.cfg.FuseQueue),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"model":"m","query":{"tables":["A"]}}`
	type result struct {
		status int
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			first <- result{-1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- result{resp.StatusCode}
	}()

	f, _ := srv.fusers.Load("m")
	waitFor(t, "queue to fill", func() bool { return len(f.(*fuser).queue) == 1 })

	// Queue is full: the next request must be rejected, not queued.
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rejBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated estimate: %d %s, want 429", resp.StatusCode, rejBody)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rejBody, &er); err != nil || er.Error == "" {
		t.Fatalf("429 body %q", rejBody)
	}
	if n := srv.metrics.coalesceRejected.Load(); n != 1 {
		t.Fatalf("coalesceRejected = %d, want 1", n)
	}

	// Shutdown fails the queued request with 503.
	srv.Close()
	if r := <-first; r.status != http.StatusServiceUnavailable {
		t.Fatalf("queued request on shutdown: %d, want 503", r.status)
	}

	// And the rejection shows up on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "neurocard_coalesce_rejected_total 1") {
		t.Fatalf("metrics missing rejection counter:\n%s", mbody)
	}
}

// TestCoalesceAdaptiveWindowDecays checks the load-adaptive window: a fresh
// fuser starts with the full budget, and a trickle of one-query flushes
// drives the window to zero so idle traffic stops paying the batching
// latency.
func TestCoalesceAdaptiveWindowDecays(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), FuseWindow: 2 * time.Millisecond})
	defer srv.Close()
	est := coalesceEstimator(t, 7, 256)
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		t.Fatal(err)
	}
	f := srv.fuserFor("m")
	if w := time.Duration(f.window.Load()); w != 2*time.Millisecond {
		t.Fatalf("fresh fuser window = %v, want the full 2ms budget", w)
	}
	q := query.Query{Tables: []string{"A"}}
	for i := 0; i < 3; i++ {
		if _, err := srv.coalesce(context.Background(), "m", q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if w := time.Duration(f.window.Load()); w != 0 {
		t.Fatalf("window after a single-request trickle = %v, want 0", w)
	}
}

// TestCoalesceConcurrentHotSwap hammers the coalesced single-query path while
// the model hot-swaps under it — run with -race in CI. Every response must be
// a valid estimate from some generation; no torn state, no lost pendings.
func TestCoalesceConcurrentHotSwap(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), FuseWindow: 500 * time.Microsecond})
	defer srv.Close()
	gens := []*core.Estimator{coalesceEstimator(t, 7, 256), coalesceEstimator(t, 11, 256)}
	if _, err := srv.reg.Install("m", "mem", gens[0]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	seed := int64(9)
	req, _ := json.Marshal(EstimateRequest{
		Query: &QueryJSON{Tables: []string{"A", "B", "C"}},
		Seed:  &seed,
	})
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(string(req)))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- httpError(resp.StatusCode, body)
					return
				}
				var er EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					errs <- err
					return
				}
				if er.Est == nil || *er.Est <= 0 || math.IsNaN(*er.Est) || math.IsInf(*er.Est, 0) {
					errs <- httpError(resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if _, err := srv.reg.Install("m", "mem", gens[i%2]); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func httpError(status int, body []byte) error {
	return fmt.Errorf("status %d: %s", status, body)
}

// TestCoalesceUnloadBeforeFlushIs404: a request the coalescer accepted for
// a model that is unloaded before the batch flushes must fail as not
// found, not as a bad request. The fuser parks on a fake window timer, the
// test unloads the model, then fires the timer.
func TestCoalesceUnloadBeforeFlushIs404(t *testing.T) {
	clock := newFakeClock()
	srv := New(Config{ModelsDir: t.TempDir(), FuseWindow: time.Hour, Clock: clock})
	defer srv.Close()
	if _, err := srv.reg.Install("m", "mem", coalesceEstimator(t, 7, 256)); err != nil {
		t.Fatal(err)
	}
	seed := int64(3)
	errc := make(chan error, 1)
	go func() {
		_, err := srv.coalesce(context.Background(), "m", query.Query{Tables: []string{"A"}}, &seed)
		errc <- err
	}()
	<-clock.afterCalled
	f := srv.fuserFor("m")
	waitFor(t, "request collected", func() bool { return f.collected.Load() == 1 })
	if err := srv.reg.Unload("m"); err != nil {
		t.Fatal(err)
	}
	clock.fire()
	err := <-errc
	if err == nil {
		t.Fatal("estimate of an unloaded model succeeded")
	}
	if got := estimateStatus(err); got != http.StatusNotFound {
		t.Fatalf("status %d for %v, want 404", got, err)
	}
}

// TestCoalesceShardUnloadBeforeFlushIs503 is the logical-model twin of
// TestCoalesceUnloadBeforeFlushIs404: a single-query estimate whose shard is
// unloaded while its sub-query waits in the shard's coalescer must answer
// 503 (errShardMissing), as the batch path does — the logical model and the
// query are fine, the fleet is impaired.
func TestCoalesceShardUnloadBeforeFlushIs503(t *testing.T) {
	clock := newFakeClock()
	srv := New(Config{ModelsDir: t.TempDir(), FuseWindow: time.Hour, Clock: clock})
	defer srv.Close()
	est := coalesceEstimator(t, 7, 256)
	man, err := shard.Build(est.Schema(), "fleet", [][]string{{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.reg.Install("fleet-s0", "mem", est); err != nil {
		t.Fatal(err)
	}
	lg, err := srv.reg.InstallLogical("fleet", "mem", man)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(3)
	errc := make(chan error, 1)
	go func() {
		out := make([]outcome, 1)
		srv.composeLogical(context.Background(), lg, &estimateRequest{
			seed: &seed, single: true, queries: []query.Query{{Tables: []string{"A"}}}}, out)
		errc <- out[0].err
	}()
	<-clock.afterCalled
	f := srv.fuserFor("fleet-s0")
	waitFor(t, "sub-query collected", func() bool { return f.collected.Load() == 1 })
	if err := srv.reg.Unload("fleet-s0"); err != nil {
		t.Fatal(err)
	}
	clock.fire()
	err = <-errc
	if !errors.Is(err, errShardMissing) {
		t.Fatalf("estimate with its shard unloaded: %v, want errShardMissing", err)
	}
	if got := estimateStatus(err); got != http.StatusServiceUnavailable {
		t.Fatalf("status %d for %v, want 503", got, err)
	}
}
