// Command bench runs the paper's full evaluation suite (§7) and prints each
// table and figure in the paper's format. Select experiments with -exp, and
// scale with -quick (seconds) or the default benchmark options (minutes).
//
//	go run ./cmd/bench -quick                 # fast smoke run, all experiments
//	go run ./cmd/bench -exp table2,table5     # full-scale selected experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"neurocard/internal/harness"
)

// main delegates to realMain so failures exit through the deferred profile
// writers: a CPU profile is only serialized at StopCPUProfile, and the run
// most worth profiling is often exactly the one whose gate fails.
func main() {
	os.Exit(realMain())
}

// gates holds the flags of the gated experiments (ci, acc, drift).
type gates struct {
	jsonOut                   bool
	outDir, gateDir           string
	maxRegress, maxAccRegress float64
}

// experiment is one name -exp accepts besides "all". An explicit
// experiment runs only when named; "all" skips it.
type experiment struct {
	name     string
	explicit bool
	run      func(o harness.Options, g gates) (string, error)
}

// plain adapts a harness experiment that needs only the options.
func plain(f func(harness.Options) (string, error)) func(harness.Options, gates) (string, error) {
	return func(o harness.Options, _ gates) (string, error) { return f(o) }
}

// table adapts a harness table that also returns its rows.
func table(f func(harness.Options) (string, []harness.Row, error)) func(harness.Options, gates) (string, error) {
	return func(o harness.Options, _ gates) (string, error) { s, _, err := f(o); return s, err }
}

// experiments is every experiment in run order.
var experiments = []experiment{
	{"table1", false, plain(harness.Table1)},
	{"fig6", false, plain(harness.Figure6)},
	{"table2", false, table(harness.Table2)},
	{"table3", false, table(harness.Table3)},
	{"table4", false, table(harness.Table4)},
	{"table5", false, plain(harness.Table5)},
	{"table6", false, plain(harness.Table6)},
	{"fig7a", false, plain(harness.Figure7a)},
	{"fig7b", false, plain(harness.Figure7b)},
	{"fig7c", false, plain(harness.Figure7c)},
	{"fig7d", false, plain(harness.Figure7d)},
	{"train", false, plain(harness.TrainThroughput)},
	{"serve", false, plain(func(o harness.Options) (string, error) {
		res, err := harness.ServeLoad(o)
		if err != nil {
			return "", err
		}
		return res.Report, nil
	})},
	// The fault-injection acceptance run: inject panics, NaN estimates, and
	// kernel stalls into a live serving stack and gate on the fault-tolerance
	// invariants (zero malformed responses, bounded p99, clean recovery, torn
	// checkpoint writes contained).
	{"chaos", true, plain(func(o harness.Options) (string, error) {
		res, err := harness.ChaosLoad(o)
		if res == nil {
			return "", err
		}
		return res.Report, err
	})},
	// The CI benchmark-regression gate: measure, optionally write JSON,
	// compare normalized throughput against the committed baseline. `all`
	// already measures serving and training through serve and train.
	{"ci", true, func(o harness.Options, g gates) (string, error) {
		return harness.RunCIBench(o, g.jsonOut, g.outDir, g.gateDir, g.maxRegress)
	}},
	// The accuracy-regression gate: score the fixed-seed golden workload
	// (disjunctive and null-aware queries included) and compare p95 q-error
	// against the committed baseline.
	{"acc", true, func(o harness.Options, g gates) (string, error) {
		return harness.RunAccuracyBench(o, g.jsonOut, g.outDir, g.gateDir, g.maxAccRegress)
	}},
	// The accuracy-under-drift gate: pour a skewed append through the ingest
	// journal, refresh, and require the refreshed model to beat the stale one
	// on exactly relabeled truth. Self-relative (no baseline).
	{"drift", true, func(o harness.Options, g gates) (string, error) {
		return harness.RunDriftBench(o, g.jsonOut, g.outDir)
	}},
}

// experimentNames lists the valid -exp names, "all" first.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

// parseExperiments turns the -exp list into the set of names to run,
// rejecting any name that would otherwise select nothing.
func parseExperiments(list string) (map[string]bool, error) {
	names := experimentNames()
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(names, e) {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s", e, strings.Join(names, ","))
		}
		want[e] = true
	}
	return want, nil
}

func realMain() int {
	quick := flag.Bool("quick", false, "run the CI-sized configuration (seconds per experiment)")
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames(), ","))
	evalWorkers := flag.Int("evalworkers", 0, "concurrent estimation goroutines for batch-capable estimators (0 = option default)")
	serveClients := flag.Int("serveclients", 0, "exp serve/ci: concurrent closed-loop load-test clients (0 = option default)")
	serveRequests := flag.Int("serverequests", 0, "exp serve/ci: single-query requests per load-test phase (0 = option default)")
	jsonOut := flag.Bool("json", false, "exp ci/acc: write BENCH_<kind>.json result files")
	outDir := flag.String("out", ".", "exp ci/acc: directory for -json result files")
	gateDir := flag.String("gate", "", "exp ci/acc: baseline directory; fail on regression beyond -maxregress")
	maxRegress := flag.Float64("maxregress", 0.20, "exp ci: allowed fractional regression of normalized throughput")
	maxAccRegress := flag.Float64("maxaccregress", 0.25, "exp acc: allowed fractional growth of p95 q-error")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	flag.Parse()
	want, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// Profiles turn perf-PR claims into evidence: run the same experiment
	// before and after and diff the flame graphs instead of guessing.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	o := harness.Default()
	if *quick {
		o = harness.Quick()
	}
	if *evalWorkers > 0 {
		o.EvalWorkers = *evalWorkers
	}
	if *serveClients > 0 {
		o.ServeClients = *serveClients
	}
	if *serveRequests > 0 {
		o.ServeRequests = *serveRequests
	}

	g := gates{
		jsonOut:       *jsonOut,
		outDir:        *outDir,
		gateDir:       *gateDir,
		maxRegress:    *maxRegress,
		maxAccRegress: *maxAccRegress,
	}
	rc := 0
	for _, e := range experiments {
		if !want[e.name] && (e.explicit || !want["all"]) {
			continue
		}
		start := time.Now()
		out, err := e.run(o, g)
		fmt.Print(out)
		if err != nil {
			log.Printf("%s: %v", e.name, err)
			rc = 1
			break
		}
		fmt.Printf("\n(%s in %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return rc
}
