package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/ingest"
	"neurocard/internal/query"
	"neurocard/internal/sampler"
	"neurocard/internal/schema"
	"neurocard/internal/server"
	"neurocard/internal/shard"
)

// layerUnits lists every per-layer metric a traced run prints, with its unit.
// A metric of a layer the workload's request and update paths never run is
// reported as 0: the layer did no work.
var layerUnits = map[string]string{
	"server.rtt_ms_p50":           "ms",
	"server.rtt_ms_p99":           "ms",
	"server.inside_ms":            "ms",
	"server.outside_ms":           "ms",
	"server.fused_batch_mean":     "count",
	"server.rejected":             "count",
	"server.degraded":             "count",
	"server.errors":               "count",
	"server.ingest_rtt_ms_p50":    "ms",
	"server.ingest_rtt_ms_p99":    "ms",
	"server.refresh_ms":           "ms",
	"server.refresh_skips":        "count",
	"server.load_ms":              "ms",
	"server.json_decode_us_per_q": "us",
	"query.key_us_per_q":          "us",
	"core.est_serial_ms_per_q":    "ms",
	"core.est_par_ms_per_q":       "ms",
	"core.compile_ms_per_q":       "ms",
	"core.plan_hit_ratio":         "ratio",
	"core.plan_evictions":         "count",
	"core.train_tuples_per_s":     "tuples/s",
	"core.ckpt_write_ms":          "ms",
	"core.ckpt_load_ms":           "ms",
	"core.update_append_ms":       "ms",
	"made.probs_us_per_col_f32":   "us",
	"made.probs_us_per_col_f64":   "us",
	"made.train_step_ms":          "ms",
	"made.params":                 "count",
	"made.serving_weight_bytes":   "bytes",
	"nn.flops_per_q":              "count",
	"sampler.build_ms":            "ms",
	"sampler.tuples_per_s":        "tuples/s",
	"sampler.append_ms":           "ms",
	"ingest.append_ms_p50":        "ms",
	"ingest.append_ms_p99":        "ms",
	"ingest.validate_us_per_row":  "us",
	"ingest.apply_ms":             "ms",
	"ingest.bytes_per_row":        "bytes",
	"ingest.replay_ms":            "ms",
	"shard.plan_us_per_q":         "us",
	"shard.subqueries_per_q":      "count",
	"shard.composite_ms_per_q":    "ms",
	"proc.alloc_bytes_per_q":      "bytes",
	"proc.gc_pause_ms":            "ms",
	"trace.overhead_pct":          "%",
	"trace.spans":                 "count",
}

// replayQueries bounds the queries each layer replay runs.
const replayQueries = 64

// target is one served model and the (sub-)queries the workload sends it.
type target struct {
	est  *core.Estimator
	ckpt []byte
	qs   []query.Query
}

// layerMetrics computes the per-layer metrics of a traced run from its spans,
// the counter deltas of its traced phases, and replays of each layer's
// public calls on the workload's own inputs.
func layerMetrics(b *bench, tr *tracer, untraced latStats) (map[string]metric, error) {
	v := make(map[string]float64, len(layerUnits))
	spans := spansByName(tr)

	// Traffic: round trips, counters at the phase boundaries, allocations.
	var counters = map[string]float64{}
	var queries int64
	for _, p := range b.traffic {
		for k, x := range p.Counters {
			counters[k] += x
		}
		if p.Name != "writer" {
			queries += p.Queries
		}
	}
	rtt := summarize(spans["server.rtt"])
	v["server.rtt_ms_p50"], v["server.rtt_ms_p99"] = rtt.P50ms, rtt.Tailms
	inside := 1000 * ratio(counters["neurocard_request_latency_seconds_sum"], counters["neurocard_request_latency_seconds_count"])
	v["server.inside_ms"] = inside
	v["server.outside_ms"] = max(0, ms(meanDur(spans["server.rtt"]))-inside)
	v["server.fused_batch_mean"] = ratio(counters["neurocard_fused_batch_size_sum"], counters["neurocard_fused_batch_size_count"])
	v["server.rejected"] = counters["neurocard_coalesce_rejected_total"]
	v["server.degraded"] = counters["neurocard_fallback_total"]
	v["server.errors"] = counters["neurocard_estimate_errors_total"]
	ing := summarize(spans["server.ingest_rtt"])
	v["server.ingest_rtt_ms_p50"], v["server.ingest_rtt_ms_p99"] = ing.P50ms, ing.Tailms
	v["server.refresh_ms"] = medianMS(spans["server.RefreshModel"])
	v["server.refresh_skips"] = counters["neurocard_refresh_checkpoint_skips_total"]
	hits, misses := counters["neurocard_plan_cache_hits_total"], counters["neurocard_plan_cache_misses_total"]
	v["core.plan_hit_ratio"] = ratio(hits, hits+misses)
	v["core.plan_evictions"] = counters["neurocard_plan_cache_evictions_total"]
	v["proc.alloc_bytes_per_q"] = ratio(counters["go_alloc_bytes"], float64(queries))
	v["proc.gc_pause_ms"] = counters["go_gc_pause_ns"] / 1e6
	v["trace.overhead_pct"] = 100 * (ratio(b.lat.P50ms, untraced.P50ms) - 1)

	// Set-up spans (every set-up of the run).
	v["server.load_ms"] = medianMS(spans["server.Registry.Load"])
	v["core.ckpt_write_ms"] = medianMS(spans["core.WriteCheckpointFile"])
	var trainSecs float64
	for _, d := range spans["core.Train"] {
		trainSecs += d.Seconds()
	}
	v["core.train_tuples_per_s"] = ratio(float64(len(spans["core.Train"])*b.sz.TrainTuples), trainSecs)

	targets, err := b.targets()
	if err != nil {
		return nil, err
	}
	if err := b.replayServer(tr, v); err != nil {
		return nil, err
	}
	if err := replayModels(b, tr, targets, v); err != nil {
		return nil, err
	}
	if len(b.ingested) > 0 {
		if err := b.replayIngest(tr, v); err != nil {
			return nil, err
		}
	}
	if lg := b.d.srv.Registry().GetLogical(modelName); lg != nil {
		if err := b.replayShard(tr, lg, v); err != nil {
			return nil, err
		}
	}

	v["trace.spans"] = float64(tr.len())
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	return out, nil
}

func spansByName(tr *tracer) map[string][]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string][]time.Duration{}
	for _, s := range tr.spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

func medianMS(d []time.Duration) float64 {
	f := make([]float64, len(d))
	for i, x := range d {
		f[i] = ms(x)
	}
	return median(f)
}

// replayQs returns the workload's own traffic queries, at most n.
func (b *bench) replayQs(n int) []query.Query {
	var qs []query.Query
	for _, lq := range b.jobLight[:min(n, len(b.jobLight))] {
		qs = append(qs, lq.Query)
	}
	return qs
}

// targets pairs each served model with its checkpoint bytes and the
// (sub-)queries the workload routes to it.
func (b *bench) targets() ([]target, error) {
	reg := b.d.srv.Registry()
	qs := b.replayQs(replayQueries)
	load := func(name string, qs []query.Query) (target, error) {
		e, err := reg.Get(name)
		if err != nil {
			return target{}, err
		}
		ckpt, err := os.ReadFile(e.Path)
		return target{est: e.Est, ckpt: ckpt, qs: qs}, err
	}
	lg := reg.GetLogical(modelName)
	if lg == nil {
		t, err := load(modelName, qs)
		return []target{t}, err
	}
	subs := map[string][]query.Query{}
	for _, q := range qs {
		pl, err := lg.Planner.Plan(q)
		if err != nil {
			return nil, err
		}
		for _, s := range pl.Subs {
			subs[s.Shard] = append(subs[s.Shard], s.Query)
		}
	}
	var ts []target
	for _, sp := range lg.Man.Shards {
		t, err := load(sp.Name, subs[sp.Name])
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// replayServer times query keys and JSON request decoding on the workload's
// requests.
func (b *bench) replayServer(tr *tracer, v map[string]float64) error {
	qs := b.replayQs(replayQueries)
	var bodies [][]byte
	for i := 0; i+b.form.batch <= len(qs); i += b.form.batch {
		body, err := b.form.encode(qs[i:i+b.form.batch], int64(i))
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	n := float64(len(bodies) * b.form.batch)
	const reps = 20
	var key []byte
	d, _ := tr.timed("query.AppendKey", 0, func() error {
		for r := 0; r < reps; r++ {
			for _, q := range qs {
				key = q.AppendKey(key[:0])
			}
		}
		return nil
	})
	v["query.key_us_per_q"] = us(d) / float64(reps*len(qs))
	d, err := tr.timed("server.DecodeQuery", 0, func() error {
		for r := 0; r < reps; r++ {
			for _, body := range bodies {
				var req server.EstimateRequest
				if err := json.Unmarshal(body, &req); err != nil {
					return err
				}
				wire := req.Queries
				if req.Query != nil {
					wire = append(wire, *req.Query)
				}
				for _, qj := range wire {
					if _, err := server.DecodeQuery(qj); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["server.json_decode_us_per_q"] = us(d) / (reps * n)
	return nil
}

// replayModels times core estimation and plan compilation, checkpoint loads,
// the made kernels and training step, and the join sampler, on every served
// model with the queries the workload sends it.
func replayModels(b *bench, tr *tracer, targets []target, v map[string]float64) error {
	var serial, par, compile, load, f32, f64, step, build, sampled time.Duration
	var nq, cols, tuples, params, weights, flops float64
	var steps int
	for _, t := range targets {
		items := make([]core.BatchItem, len(t.qs))
		for i, q := range t.qs {
			items[i] = core.BatchItem{Query: q, Seed: scoreSeed, Idx: int64(i)}
		}
		nq += float64(len(items))
		estimate := func(est *core.Estimator, name string, workers int) (time.Duration, error) {
			return tr.timed(name, 0, func() error {
				_, errs := est.EstimateItems(items, workers)
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			})
		}

		// A fresh load: the first one-sample pass compiles every plan, the
		// repeat finds them cached; one sample keeps sampling cost out of the
		// difference.
		var fresh *core.Estimator
		d, err := tr.timed("core.LoadCheckpoint", 0, func() (err error) {
			fresh, err = core.LoadCheckpoint(bytes.NewReader(t.ckpt))
			return err
		})
		if err != nil {
			return err
		}
		load += d
		onePass := func(name string) (time.Duration, error) {
			rng := rand.New(rand.NewSource(scoreSeed))
			return tr.timed(name, 0, func() error {
				for _, q := range t.qs {
					if _, err := fresh.EstimateWithSamples(q, 1, rng); err != nil {
						return err
					}
				}
				return nil
			})
		}
		first, err := onePass("core.EstimateWithSamples.first")
		if err != nil {
			return err
		}
		repeat, err := onePass("core.EstimateWithSamples.repeat")
		if err != nil {
			return err
		}
		compile += first - repeat
		// The served estimator, its plan cache warmed first.
		if _, err := estimate(t.est, "core.EstimateItems.warmup", 1); err != nil {
			return err
		}
		d, err = estimate(t.est, "core.EstimateItems.serial", 1)
		if err != nil {
			return err
		}
		serial += d
		d, err = estimate(t.est, "core.EstimateItems.parallel", runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		par += d

		m := fresh.Model()
		ps := fresh.Config().PSamples
		const reps = 10
		d32, _ := tr.timed("made.InferSession32.Probs", 0, func() error {
			s := m.NewInferSession32(ps)
			for r := 0; r < reps; r++ {
				s.Reset(ps)
				for c := 0; c < m.NumCols(); c++ {
					s.Probs(c)
				}
			}
			return nil
		})
		d64, _ := tr.timed("made.InferSession.Probs", 0, func() error {
			s := m.NewInferSession(ps)
			for r := 0; r < reps; r++ {
				s.Reset(ps)
				for c := 0; c < m.NumCols(); c++ {
					s.Probs(c)
				}
			}
			return nil
		})
		f32 += d32
		f64 += d64
		cols += float64(reps * m.NumCols())

		// Training steps mutate the model: they run on the fresh copy.
		bs := fresh.Config().BatchSize
		rng := rand.New(rand.NewSource(scoreSeed))
		batch := make([][]int32, bs)
		for i := range batch {
			batch[i] = make([]int32, m.NumCols())
			for c := range batch[i] {
				batch[i][c] = int32(rng.Intn(m.DomainSize(c)))
			}
		}
		ts := m.NewTrainSession(bs)
		for r := 0; r < 5; r++ {
			d, _ := tr.timed("made.TrainSession.Step", 0, func() error {
				ts.Step(batch, 0.5)
				return nil
			})
			step += d
			steps++
		}

		params += float64(m.NumParams())
		weights += float64(t.est.ServingWeightBytes())
		flops += 2 * float64(m.NumParams()*ps*len(t.qs))

		sch := t.est.Schema()
		var smp *sampler.Sampler
		d, err = tr.timed("sampler.New", 0, func() (err error) {
			smp, err = sampler.New(sch)
			return err
		})
		if err != nil {
			return err
		}
		build += d
		out := make([][]int32, bs)
		for i := range out {
			out[i] = make([]int32, len(smp.Tables()))
		}
		const batches = 20
		d, _ = tr.timed("sampler.SampleBatchInto", 0, func() error {
			for r := 0; r < batches; r++ {
				smp.SampleBatchInto(rng, out)
			}
			return nil
		})
		sampled += d
		tuples += float64(batches * bs)
	}
	n := float64(len(targets))
	v["core.est_serial_ms_per_q"] = ms(serial) / nq
	v["core.est_par_ms_per_q"] = ms(par) / nq
	v["core.compile_ms_per_q"] = max(0, ms(compile)/nq)
	v["core.ckpt_load_ms"] = ms(load) / n
	v["made.probs_us_per_col_f32"] = us(f32) / cols
	v["made.probs_us_per_col_f64"] = us(f64) / cols
	v["made.train_step_ms"] = ms(step) / float64(steps)
	v["made.params"] = params
	v["made.serving_weight_bytes"] = weights
	// One multiply-add per weight per progressive-sample row: an upper bound
	// that ignores masked-out weights, per query of the workload (a sharded
	// query runs once per sub-query).
	v["nn.flops_per_q"] = flops / float64(len(b.replayQs(replayQueries)))
	v["sampler.build_ms"] = ms(build) / n
	v["sampler.tuples_per_s"] = tuples / sampled.Seconds()
	return nil
}

// replayIngest replays the run's ingest batches through the journal, the
// batch validation and apply, and incremental join-count and estimator
// maintenance on the set-up's data.
func (b *bench) replayIngest(tr *tracer, v map[string]float64) error {
	dir := filepath.Join(b.tmp, "replay-journal")
	j, _, err := ingest.Open(dir, ingest.Options{})
	if err != nil {
		return err
	}
	var appends []time.Duration
	var rows int
	for _, bt := range b.ingested {
		cp := &ingest.RowBatch{Tables: bt.Tables}
		d, err := tr.timed("ingest.Journal.Append", 0, func() error {
			_, err := j.Append(cp)
			return err
		})
		if err != nil {
			j.Close()
			return err
		}
		appends = append(appends, d)
		rows += bt.NumRows()
	}
	st := j.Stats()
	if err := j.Close(); err != nil {
		return err
	}
	a := summarize(appends)
	v["ingest.append_ms_p50"], v["ingest.append_ms_p99"] = a.P50ms, a.Tailms
	v["ingest.bytes_per_row"] = ratio(float64(st.Bytes), float64(st.Rows))
	d, err := tr.timed("ingest.Open", 0, func() error {
		j, _, err := ingest.Open(dir, ingest.Options{})
		if err != nil {
			return err
		}
		return j.Close()
	})
	if err != nil {
		return err
	}
	v["ingest.replay_ms"] = ms(d)

	base := b.ds.Schema
	d, err = tr.timed("ingest.Validate", 0, func() error {
		for _, bt := range b.ingested {
			if err := ingest.Validate(base, bt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["ingest.validate_us_per_row"] = us(d) / float64(rows)
	var merged *schema.Schema
	d, err = tr.timed("ingest.Apply", 0, func() (err error) {
		merged, err = ingest.Apply(base, b.ingested)
		return err
	})
	if err != nil {
		return err
	}
	v["ingest.apply_ms"] = ms(d)
	old, err := sampler.New(base)
	if err != nil {
		return err
	}
	d, err = tr.timed("sampler.NewAppended", 0, func() error {
		_, err := sampler.NewAppended(old, merged)
		return err
	})
	if err != nil {
		return err
	}
	v["sampler.append_ms"] = ms(d)
	est, err := core.Build(base, coreConfig(b.o, b.ds.ContentCols, b.o.Seed))
	if err != nil {
		return err
	}
	d, err = tr.timed("core.UpdateDataAppend", 0, func() error { return est.UpdateDataAppend(merged) })
	if err != nil {
		return err
	}
	v["core.update_append_ms"] = ms(d)
	return nil
}

// replayShard times the planner and the in-process composite estimator on
// the workload's queries.
func (b *bench) replayShard(tr *tracer, lg *server.Logical, v map[string]float64) error {
	qs := b.replayQs(replayQueries)
	const reps = 20
	subs := 0
	d, err := tr.timed("shard.Planner.Plan", 0, func() error {
		for r := 0; r < reps; r++ {
			for _, q := range qs {
				pl, err := lg.Planner.Plan(q)
				if err != nil {
					return err
				}
				subs += len(pl.Subs)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["shard.plan_us_per_q"] = us(d) / float64(reps*len(qs))
	v["shard.subqueries_per_q"] = float64(subs) / float64(reps*len(qs))
	ests := map[string]*core.Estimator{}
	for _, sp := range lg.Man.Shards {
		e, err := b.d.srv.Registry().Get(sp.Name)
		if err != nil {
			return err
		}
		ests[sp.Name] = e.Est
	}
	comp, err := shard.NewComposite(lg.Man, ests)
	if err != nil {
		return err
	}
	d, err = tr.timed("shard.Composite.Estimate", 0, func() error {
		for _, q := range qs {
			if _, err := comp.Estimate(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["shard.composite_ms_per_q"] = ms(d) / float64(len(qs))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
