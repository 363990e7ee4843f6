// Command perfbench is the repository's benchmark of the NeuroCard estimator
// daemon. One run builds the model in process, serves it through the real
// server handler on a loopback listener, drives one named workload, checks
// every answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	perfbench -workload point -seed 1 -seconds 10 -trace 0
//
// README.md describes the workloads and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"neurocard/internal/datagen"
)

// buildDir is the benchmark's scratch directory, relative to the checkout
// root the benchmark runs from (run.sh builds the binary there too).
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	seed := flag.Int64("seed", 1, "workload seed (traffic order and request seeds)")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result line. Human-readable
// detail (the run record, per-phase accounting and counters, span table)
// goes to out first.
func run(out io.Writer, name string, seed int64, seconds int, traced bool, sz sizes) (*result, error) {
	def, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(sortedKeys(workloads), ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		sz:      sz,
		o:       modelOptions(sz),
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		tmp:     tmp,
		extra:   map[string]float64{},
	}
	rec := newRunRecord(name, seed, seconds, traced)
	steal0, total0 := cpuTicks()
	if b.ds, err = datagen.JOBLight(datagen.Config{Seed: dataSeed, Scale: sz.Scale}); err != nil {
		return nil, err
	}
	setup, err := def.prepare(b)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if b.d, b.setupS, err = setupMedian(sz.Setups, tr, setup); err != nil {
		return nil, err
	}
	defer b.d.close()

	// A traced run measures half its time untraced and half traced; the
	// difference in headline latency is the tracing overhead.
	var all []*phase
	var untraced latStats
	if traced {
		ps, err := def.run(b, nil, b.seconds/2, 0)
		if err != nil {
			return nil, err
		}
		all, untraced = ps, b.lat
		b.traffic, err = def.run(b, tr, b.seconds/2, 1)
		if err != nil {
			return nil, err
		}
	} else if b.traffic, err = def.run(b, nil, b.seconds, 0); err != nil {
		return nil, err
	}
	all = append(all, b.traffic...)
	for _, s := range b.samples {
		b.checkInProcess(s)
	}
	if err := def.score(b); err != nil {
		return nil, err
	}

	res := &result{Correct: len(b.failed) == 0, Metrics: map[string]metric{}}
	var ok64 int64
	for _, p := range all {
		res.Attempted += p.Ops.Attempted
		res.Failed += p.Ops.Failed
		ok64 += p.Ops.Succeeded
	}
	res.Attempted += b.ops.Attempted
	res.Failed += b.ops.Failed
	ok64 += b.ops.Succeeded

	if traced {
		layers, err := layerMetrics(b, tr, untraced)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		fmt.Fprint(out, formatStats(tr.stats()))
		dir := filepath.Join(buildDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	} else {
		// Estimate phases run one after another; the ingest writer runs
		// beside its reader and answers no queries.
		var queries int64
		var secs float64
		for _, p := range b.traffic {
			if p.Name != "writer" {
				queries += p.Queries
				secs += p.Seconds
			}
		}
		m := res.Metrics
		m["setup_s"] = metric{b.setupS, "s"}
		m["lat_p50_ms"] = metric{b.lat.P50ms, "ms"}
		m["qps"] = metric{float64(queries) / secs, "q/s"}
		m["qerr_p50"] = metric{b.qerr.Median, "ratio"}
		m["qerr_p95"] = metric{b.qerr.P95, "ratio"}
		m["qerr_max"] = metric{b.qerr.Max, "ratio"}
		m["ok_frac"] = metric{ratio(float64(ok64), float64(res.Attempted)), "ratio"}
		m["ckpt_mb"] = metric{float64(b.d.ckptBytes) / (1 << 20), "MB"}
		m["mem_peak_mb"] = metric{peakRSSMB(), "MB"}
	}

	if steal1, total1 := cpuTicks(); total1 > total0 {
		rec.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	detail := map[string]any{
		"record":         rec,
		"why":            def.why,
		"phases":         all,
		"other_ops":      &b.ops,
		"workload_extra": b.extra,
		"setup_steps_ms": stepsMS(b.d.steps),
		"qerr":           b.qerr,
		"headline":       b.lat,
		"checks_failed":  b.failed,
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// stepsMS reports the last set-up's steps in milliseconds.
func stepsMS(steps map[string]time.Duration) map[string]float64 {
	out := make(map[string]float64, len(steps))
	for k, v := range steps {
		out[k] = ms(v)
	}
	return out
}
