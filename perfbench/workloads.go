package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/exec"
	"neurocard/internal/harness"
	"neurocard/internal/ingest"
	"neurocard/internal/query"
	"neurocard/internal/server"
	"neurocard/internal/table"
	"neurocard/internal/value"
	"neurocard/internal/workload"
)

// bench is the state of one run: inputs, the daemon under test, and what
// the workload measured.
type bench struct {
	sz      sizes
	o       harness.Options
	seed    int64
	seconds time.Duration
	tmp     string
	ds      *datagen.Dataset
	prec    core.Precision // serving precision of monolithic models

	d      *daemon
	setupS float64

	traffic []*phase // measured phases (the traced half on traced runs)
	lat     latStats // the workload's headline latency sample
	extra   map[string]float64
	qerr    workload.Summary
	ops     tally // every operation outside the phases (refreshes)

	failMu sync.Mutex
	failed []string // failed output checks

	jobLight []workload.LabeledQuery // fixed 70-query JOB-light set
	form     form                    // the workload's estimate request shape
	samples  []served                // traffic answers re-estimated in process
	sampleMu sync.Mutex
	ingested []*ingest.RowBatch // ingest: every batch the writer sent
	writer   *rowWriter
}

// served is one answered request kept for the in-process equivalence check.
type served struct {
	qs   []query.Query
	seed int64
	ests []float64
}

func (b *bench) fail(format string, args ...any) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	b.failed = append(b.failed, fmt.Sprintf(format, args...))
}

// form is the shape of a workload's estimate requests.
type form struct {
	batch int    // queries per request; 1 sends a single "query"
	bin   bool   // NCB frame instead of JSON
	model string // "" = the default model
}

func (f form) encode(qs []query.Query, seed int64) ([]byte, error) {
	if f.bin {
		return server.AppendBinRequest(nil, f.model, &seed, qs), nil
	}
	req := server.EstimateRequest{Model: f.model, Seed: &seed}
	wire := make([]server.QueryJSON, len(qs))
	for i, q := range qs {
		var err error
		if wire[i], err = server.EncodeQuery(q); err != nil {
			return nil, err
		}
	}
	if len(qs) == 1 && f.batch == 1 {
		req.Query = &wire[0]
	} else {
		req.Queries = wire
	}
	return json.Marshal(req)
}

// workloadDef is one named workload.
type workloadDef struct {
	why     string
	prepare func(b *bench) (setupFunc, error)
	run     func(b *bench, tr *tracer, dur time.Duration, round int) ([]*phase, error)
	score   func(b *bench) error
}

var workloads = map[string]workloadDef{
	"point": {
		why:     "optimizer probing one subplan at a time: seeded single JSON queries, open loop at three rates, float32 model, plan cache hit",
		prepare: preparePoint,
		run:     runPoint,
		score:   func(b *bench) error { return b.score(b.jobLight) },
	},
	"ingest": {
		why:     "writes beside reads: NCB ingest batches with a refresh every 8 acks while point traffic reads at its trickle rate",
		prepare: prepareIngest,
		run:     runIngest,
		score:   scoreIngest,
	},
	"sharded": {
		why:     "2-shard logical model: seeded JSON batches of 8 JOB-light queries, open loop at 50 batches/s, through the shard planner and combiner",
		prepare: prepareSharded,
		run:     runSharded,
		score:   func(b *bench) error { return b.score(b.jobLight) },
	},
}

// measure runs one phase between two /metrics scrapes and two MemStats
// reads, attaching the counter deltas and allocation bytes per query. A
// collection first gives every run the same starting heap.
func (b *bench) measure(c *client, f func() *phase) (*phase, error) {
	runtime.GC()
	before, err := scrape(c.hc, c.base)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	p := f()
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	after, err := scrape(c.hc, c.base)
	if err != nil {
		return nil, err
	}
	p.Counters = delta(before, after)
	p.Counters["go_gc_pause_ns"] = float64(m1.PauseTotalNs - m0.PauseTotalNs)
	p.Counters["go_alloc_bytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	p.Counters["process_cpu_s"] = cpu.Seconds()
	p.AllocBPQ = ratio(p.Counters["go_alloc_bytes"], float64(p.Queries))
	return p, nil
}

// sender returns the sendFunc for request i of the workload's form, drawing
// batch queries from pick(i, j) and seeding request i from the workload
// seed and round, and keeping every CheckEvery-th answer for the
// in-process check.
func (b *bench) sender(c *client, tr *tracer, round int, pick func(i, j int) query.Query) sendFunc {
	base := int64(round) << 32
	return func(i int) (int, error, bool) {
		qs := make([]query.Query, b.form.batch)
		for j := range qs {
			qs[j] = pick(i, j)
		}
		seed := mixSeed(b.seed, base+int64(i))
		body, err := b.form.encode(qs, seed)
		if err != nil {
			return 0, err, false
		}
		a, err := c.estimate(tr, base+int64(i)+1, body, b.form.bin)
		if errors.Is(err, errBadAnswer) {
			b.fail("request %d: %v", i, err)
		}
		if err != nil {
			return 0, err, a.degraded
		}
		if i%b.sz.CheckEvery == 0 {
			b.sampleMu.Lock()
			b.samples = append(b.samples, served{qs: qs, seed: seed, ests: a.ests})
			b.sampleMu.Unlock()
		}
		return len(qs), nil, false
	}
}

// ---- point ----

func loadJOBLight(b *bench) error {
	wl, err := workload.JOBLight(b.ds, dataSeed)
	if err != nil {
		return err
	}
	b.jobLight = wl.Queries
	return nil
}

func preparePoint(b *bench) (setupFunc, error) {
	b.prec = core.PrecisionFloat32
	b.form = form{batch: 1}
	if err := loadJOBLight(b); err != nil {
		return nil, err
	}
	return setupMonolithic(b.ds, b.o, b.tmp, b.prec, false), nil
}

// runPoint offers the three fixed rates in turn; the latency metrics come
// from the middle rate, and goodput is the highest rate whose tail stays
// within the 25 ms SLO with no failure and no growing backlog.
func runPoint(b *bench, tr *tracer, dur time.Duration, round int) ([]*phase, error) {
	c := newClient(b.d.base, clients)
	defer c.close()
	off := rand.New(rand.NewSource(b.seed)).Intn(len(b.jobLight))
	var phases []*phase
	for k, rate := range b.sz.Rates {
		pick := func(i, _ int) query.Query { return b.jobLight[(off+i)%len(b.jobLight)].Query }
		send := b.sender(c, tr, round*len(b.sz.Rates)+k, pick)
		secs := time.Duration(float64(dur) * b.sz.RateShare[k])
		p, err := b.measure(c, func() *phase {
			return openLoop(fmt.Sprintf("rate-%g", rate), rate, secs, clients, send)
		})
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	}
	b.lat = phases[midRate].Latency
	goodput := 0.0
	for _, p := range phases {
		if p.Latency.Tailms <= ms(sloP99) && p.Ops.Failed == 0 && !p.Backlog {
			goodput = max(goodput, p.Rate)
		}
	}
	b.extra["goodput_qps"] = goodput
	return phases, nil
}

// ---- sharded ----

func prepareSharded(b *bench) (setupFunc, error) {
	b.prec = core.PrecisionFloat64
	b.form = form{batch: b.sz.ShardBatch, model: modelName}
	if err := loadJOBLight(b); err != nil {
		return nil, err
	}
	return setupSharded(b.ds, b.o, b.tmp), nil
}

// runSharded offers batches open loop at about 40% of the measured closed-loop
// ceiling: closed-loop latency and throughput of this short-request workload
// tracked the VM's available CPU from run to run (spread up to 0.24).
func runSharded(b *bench, tr *tracer, dur time.Duration, round int) ([]*phase, error) {
	c := newClient(b.d.base, clients)
	defer c.close()
	off := rand.New(rand.NewSource(b.seed)).Intn(len(b.jobLight))
	n := b.sz.ShardBatch
	pick := func(i, j int) query.Query { return b.jobLight[(off+i*n+j)%len(b.jobLight)].Query }
	send := b.sender(c, tr, round, pick)
	p, err := b.measure(c, func() *phase { return openLoop("open", b.sz.ShardRate, dur, clients, send) })
	if err != nil {
		return nil, err
	}
	b.lat = p.Latency
	return []*phase{p}, nil
}

// ---- ingest ----

func prepareIngest(b *bench) (setupFunc, error) {
	b.prec = core.PrecisionFloat32
	b.form = form{batch: 1}
	if err := loadJOBLight(b); err != nil {
		return nil, err
	}
	// The rows (and so the refreshed model scored for q-error) are fixed;
	// the workload seed varies the reader traffic.
	w, err := newRowWriter(b.ds, dataSeed)
	if err != nil {
		return nil, err
	}
	b.writer = w
	return setupMonolithic(b.ds, b.o, b.tmp, b.prec, true), nil
}

// ingestTables are the fact tables the writer appends to, with every column.
var ingestTables = []struct {
	name string
	cols []string
}{
	{"movie_keyword", []string{"movie_id", "keyword_id"}},
	{"movie_companies", []string{"movie_id", "company_id", "company_type_id"}},
}

// rowWriter resamples existing fact-table rows from a seed. It
// keeps each movie's fanout at or below the trained maximum, so every
// refresh can checkpoint (the model's fanout domain never grows).
type rowWriter struct {
	rng     *rand.Rand
	tables  []*table.Table
	room    []map[int32]int // per table: movie dictionary id → appendable rows
	batches int
}

func newRowWriter(ds *datagen.Dataset, seed int64) (*rowWriter, error) {
	w := &rowWriter{rng: rand.New(rand.NewSource(seed))}
	for _, it := range ingestTables {
		t := ds.Schema.Table(it.name)
		if t == nil {
			return nil, fmt.Errorf("ingest: no table %s", it.name)
		}
		counts := map[int32]int{}
		maxFan := 0
		for _, id := range t.MustCol("movie_id").IDs() {
			if id != table.NullID {
				counts[id]++
				maxFan = max(maxFan, counts[id])
			}
		}
		room := make(map[int32]int, len(counts))
		for id, c := range counts {
			room[id] = maxFan - c
		}
		w.tables = append(w.tables, t)
		w.room = append(w.room, room)
	}
	return w, nil
}

// next returns the next batch: rows alternate between the two tables by
// batch, each a copy of a uniformly drawn existing row whose movie still
// has fanout headroom.
func (w *rowWriter) next(rows int) (*ingest.RowBatch, error) {
	ti := w.batches % len(w.tables)
	w.batches++
	t, spec := w.tables[ti], ingestTables[ti]
	movie := t.MustCol("movie_id")
	out := make([][]value.Value, 0, rows)
	for tries := 0; len(out) < rows; tries++ {
		if tries > 1000*rows {
			return nil, fmt.Errorf("ingest: %s has no fanout headroom left", spec.name)
		}
		r := w.rng.Intn(t.NumRows())
		id := movie.IDs()[r]
		if id == table.NullID || w.room[ti][id] == 0 {
			continue
		}
		w.room[ti][id]--
		row := make([]value.Value, len(spec.cols))
		for i, c := range spec.cols {
			row[i] = t.MustCol(c).Value(r)
		}
		out = append(out, row)
	}
	return &ingest.RowBatch{Tables: []ingest.TableRows{{Table: spec.name, Columns: spec.cols, Rows: out}}}, nil
}

// runIngest runs the writer (a fixed number of batches at a fixed rate,
// with a RefreshModel call after every RefreshEvery-th ack, so the final
// data and model are the same on every run) beside a reader sending point
// traffic at the trickle rate for as long as the writer runs.
func runIngest(b *bench, tr *tracer, dur time.Duration, round int) ([]*phase, error) {
	c := newClient(b.d.base, 1)
	defer c.close()
	wc := newClient(b.d.base, 1)
	defer wc.close()
	nBatches := max(1, int(b.sz.IngestRate*dur.Seconds()))
	frames := make([][]byte, nBatches)
	batches := make([]*ingest.RowBatch, nBatches)
	for i := range frames {
		bt, err := b.writer.next(b.sz.IngestRows)
		if err != nil {
			return nil, err
		}
		batches[i] = bt
		frames[i] = ingest.EncodeBatch(nil, bt)
	}
	b.ingested = append(b.ingested, batches...)

	writer := &phase{Name: "writer", Ops: &tally{}} // its Queries count acked rows
	var refreshes []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		gap := time.Duration(float64(time.Second) / b.sz.IngestRate)
		start := time.Now()
		for i, fr := range frames {
			if d := time.Until(start.Add(time.Duration(i) * gap)); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			_, err := wc.post(tr, "server.ingest_rtt", 0, 0, "/v1/models/"+modelName+"/ingest", server.ContentTypeBinary, fr)
			writer.lats = append(writer.lats, time.Since(t0))
			writer.Ops.add(err, false)
			if err == nil {
				writer.Queries += int64(batches[i].NumRows())
			}
			if (i+1)%b.sz.RefreshEvery == 0 || i == len(frames)-1 {
				refreshes = append(refreshes, b.refresh(tr))
			}
		}
		writer.Seconds = time.Since(start).Seconds()
	}()

	// The reader runs until the writer is done (at least dur).
	off := rand.New(rand.NewSource(b.seed)).Intn(len(b.jobLight))
	pick := func(i, _ int) query.Query { return b.jobLight[(off+i)%len(b.jobLight)].Query }
	send := b.sender(c, tr, round, pick)
	var phases []*phase
	for k := 0; ; k++ {
		p, err := b.measure(c, func() *phase {
			return openLoop(fmt.Sprintf("reader-%d", k), b.sz.Rates[0], dur, 1, send)
		})
		if err != nil {
			<-done
			return nil, err
		}
		phases = append(phases, p)
		if closed(done) {
			break
		}
		dur = time.Second // keep reading in short stretches until the writer ends
	}
	writer.Latency = summarize(writer.lats)
	reader := mergePhases("reader", phases)
	b.lat = reader.Latency
	b.extra["ingest_p50_ms"] = writer.Latency.P50ms
	b.extra["ingest_p99_ms"] = writer.Latency.Tailms
	var rs []float64
	for _, d := range refreshes {
		rs = append(rs, d.Seconds())
	}
	b.extra["refresh_s"] = median(rs)
	b.extra["refreshes"] = float64(len(rs))
	// Reader answers came from whichever generation was live; only the
	// final generation can be re-estimated in process (see scoreIngest).
	b.samples = nil
	return []*phase{reader, writer}, nil
}

func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// refresh folds the journaled rows into a new checkpointed generation. A
// skipped checkpoint counts as a failed operation.
func (b *bench) refresh(tr *tracer) time.Duration {
	var res server.RefreshResult
	d, err := tr.timed("server.RefreshModel", 0, func() (err error) {
		res, err = b.d.srv.RefreshModel(modelName, b.sz.RefreshTuples)
		return err
	})
	if err == nil && (!res.Refreshed || !res.Checkpointed) {
		err = fmt.Errorf("refresh: refreshed=%v checkpointed=%v: %s", res.Refreshed, res.Checkpointed, res.CheckpointErr)
	}
	b.ops.add(err, false)
	return d
}

// mergePhases joins consecutive phases of one role into one.
func mergePhases(name string, ps []*phase) *phase {
	m := &phase{Name: name, Ops: &tally{}, Counters: map[string]float64{}}
	for _, p := range ps {
		m.Rate = p.Rate
		m.Seconds += p.Seconds
		m.Queries += p.Queries
		m.Ops.Attempted += p.Ops.Attempted
		m.Ops.Succeeded += p.Ops.Succeeded
		m.Ops.Failed += p.Ops.Failed
		m.Ops.Degraded += p.Ops.Degraded
		if m.Ops.FirstErr == "" {
			m.Ops.FirstErr = p.Ops.FirstErr
		}
		m.LateP99 = max(m.LateP99, p.LateP99)
		m.Backlog = m.Backlog || p.Backlog
		m.lats = append(m.lats, p.lats...)
		for k, v := range p.Counters {
			m.Counters[k] += v
		}
	}
	m.Latency = summarize(m.lats)
	m.AllocBPQ = ratio(m.Counters["go_alloc_bytes"], float64(m.Queries))
	return m
}

// scoreIngest relabels the golden workload on the final data with the exact
// executor and scores the refreshed model on it.
func scoreIngest(b *bench) error {
	golden, err := workload.Golden(b.ds, b.sz.Golden, dataSeed)
	if err != nil {
		return err
	}
	entry, err := b.d.srv.Registry().Get(modelName)
	if err != nil {
		return err
	}
	relabeled := make([]workload.LabeledQuery, len(golden.Queries))
	for i, lq := range golden.Queries {
		card, err := exec.Cardinality(entry.Est.Schema(), lq.Query)
		if err != nil {
			return err
		}
		relabeled[i] = workload.LabeledQuery{Query: lq.Query, TrueCard: card}
	}
	return b.score(relabeled)
}

// ---- scoring and equivalence ----

// score sends the labelled queries in the workload's request form with fixed
// request seeds, checks every answer against in-process EstimateItems and
// the first few against the other wire protocol, and computes q-errors.
func (b *bench) score(qs []workload.LabeledQuery) error {
	c := newClient(b.d.base, 1)
	defer c.close()
	other := b.form
	other.bin = !other.bin
	var qerrs []float64
	for k := 0; k*b.form.batch < len(qs); k++ {
		chunk := qs[k*b.form.batch : min(len(qs), (k+1)*b.form.batch)]
		batch := make([]query.Query, len(chunk))
		for i, lq := range chunk {
			if lq.TrueCard <= 0 {
				return fmt.Errorf("score: query %d has no exact non-empty label", k*b.form.batch+i)
			}
			batch[i] = lq.Query
		}
		seed := mixSeed(scoreSeed, int64(k))
		got, err := b.request(c, b.form, batch, seed)
		if err != nil {
			b.fail("score request %d: %v", k, err)
			continue
		}
		b.checkInProcess(served{qs: batch, seed: seed, ests: got})
		if k < 4 {
			alt, err := b.request(c, other, batch, seed)
			if err != nil {
				b.fail("score request %d on the other wire: %v", k, err)
			} else if !equalBits(alt, got) {
				b.fail("score request %d: JSON and NCB answers differ: %v vs %v", k, got, alt)
			}
		}
		for i, lq := range chunk {
			qerrs = append(qerrs, workload.QError(got[i], lq.TrueCard))
		}
	}
	if len(qerrs) != len(qs) {
		return fmt.Errorf("score: %d of %d queries answered", len(qerrs), len(qs))
	}
	b.qerr = workload.Summarize(qerrs)
	return nil
}

func (b *bench) request(c *client, f form, qs []query.Query, seed int64) ([]float64, error) {
	body, err := f.encode(qs, seed)
	if err != nil {
		return nil, err
	}
	a, err := c.estimate(nil, 0, body, f.bin)
	return a.ests, err
}

// checkInProcess re-estimates a served request with core EstimateItems at the
// same (seed, idx) pairs. Float32 models must agree bit for bit, float64
// ones within 1e-9 relative (a logical model multiplies its shard estimates
// in a request-dependent order).
func (b *bench) checkInProcess(s served) {
	want, err := b.inProcess(s.qs, s.seed)
	if err != nil {
		b.fail("in-process estimate: %v", err)
		return
	}
	for i := range want {
		if b.prec == core.PrecisionFloat32 {
			if math.Float64bits(want[i]) != math.Float64bits(s.ests[i]) {
				b.fail("seed %d item %d: served %.17g, in process %.17g (float32 must match bit for bit)", s.seed, i, s.ests[i], want[i])
			}
		} else if math.Abs(want[i]-s.ests[i]) > 1e-9*math.Abs(want[i]) {
			b.fail("seed %d item %d: served %.17g, in process %.17g", s.seed, i, s.ests[i], want[i])
		}
	}
}

func (b *bench) inProcess(qs []query.Query, seed int64) ([]float64, error) {
	reg := b.d.srv.Registry()
	if lg := reg.GetLogical(modelName); lg != nil {
		out := make([]float64, len(qs))
		for i, q := range qs {
			pl, err := lg.Planner.Plan(q)
			if err != nil {
				return nil, err
			}
			out[i] = pl.Factor
			for _, sub := range pl.Subs {
				e, err := reg.Get(sub.Shard)
				if err != nil {
					return nil, err
				}
				ests, errs := e.Est.EstimateItems([]core.BatchItem{{Query: sub.Query, Seed: seed, Idx: int64(i)}}, 1)
				if errs[0] != nil {
					return nil, errs[0]
				}
				out[i] *= ests[0]
			}
		}
		return out, nil
	}
	e, err := reg.Get(modelName)
	if err != nil {
		return nil, err
	}
	items := make([]core.BatchItem, len(qs))
	for i, q := range qs {
		items[i] = core.BatchItem{Query: q, Seed: seed, Idx: int64(i)}
	}
	ests, errs := e.Est.EstimateItems(items, 1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ests, nil
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
