package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/harness"
)

// sizes fixes every rate and input size of the four workloads. fullSizes is
// what BENCHMARK.json's runs use; the smoke test runs toySizes.
type sizes struct {
	Scale       float64 // datagen.JOBLight scale
	TrainTuples int     // training tuples per model (per shard when sharded)
	Setups      int     // full set-ups per run; setup_s is their median

	Rates     []float64 // point: offered rates, q/s, trickle → near ceiling
	RateShare []float64 // share of the run each rate gets

	ShardBatch int     // sharded: queries per JSON batch
	ShardRate  float64 // sharded: offered batches per second

	IngestRate    float64 // ingest: writer batches per second
	IngestRows    int     // ingest: rows per batch
	RefreshEvery  int     // ingest: RefreshModel after every k-th acked batch
	RefreshTuples int     // ingest: fine-tune tuples per refresh
	Golden        int     // ingest: golden queries scored after the final refresh

	CheckEvery int // every k-th traffic request is re-estimated in process
}

var fullSizes = sizes{
	Scale:         0.08,
	TrainTuples:   16384,
	Setups:        3,
	Rates:         []float64{100, 250, 400},
	RateShare:     []float64{0.10, 0.80, 0.10},
	ShardBatch:    8,
	ShardRate:     50,
	IngestRate:    8,
	IngestRows:    16,
	RefreshEvery:  8,
	RefreshTuples: 2048,
	Golden:        200,
	CheckEvery:    16,
}

// Fixed seeds: the dataset, the trained models, the scored query sets and
// the ingested rows do not depend on the workload seed, so q-error and
// checkpoint size are a function of the code alone. The workload seed drives
// the traffic: query order and request seeds.
const (
	dataSeed  = 42 // datagen, training, JOB-light and scored query sets
	scoreSeed = 7  // request seed of the q-error scoring pass
	sloP99    = 25 * time.Millisecond
	clients   = 2 // keep-alive connections per load generator: nproc of the sized box
	midRate   = 1 // index of the point rate the latency metrics come from
)

// modelOptions is the CI-sized model shape every workload serves.
func modelOptions(sz sizes) harness.Options {
	o := harness.Quick()
	o.Seed = dataSeed
	o.DataScale = sz.Scale
	o.TrainTuples = sz.TrainTuples
	return o
}

func coreConfig(o harness.Options, contentCols map[string][]string, seed int64) core.Config {
	return core.Config{
		Model:          o.Model,
		FactBits:       o.FactBits,
		ContentCols:    contentCols,
		BatchSize:      o.BatchSize,
		WildcardProb:   0.5,
		SamplerWorkers: o.SamplerWorkers,
		Seed:           seed,
		PSamples:       o.PSamples,
	}
}

// mixSeed derives the seed of request i from the workload seed
// (splitmix64 finalizer).
func mixSeed(seed, i int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line every run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations of one phase. Failed covers transport errors,
// non-2xx answers (429 included), non-finite or non-positive estimates,
// degraded fallback answers, refresh failures and checkpoint skips.
type tally struct {
	mu        sync.Mutex
	Attempted int64  `json:"attempted"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
	Degraded  int64  `json:"degraded"`
	FirstErr  string `json:"first_error,omitempty"`
}

func (t *tally) add(err error, degraded bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Attempted++
	if degraded {
		t.Degraded++
	}
	if err != nil {
		t.Failed++
		if t.FirstErr == "" {
			t.FirstErr = err.Error()
		}
		return
	}
	t.Succeeded++
}

// latStats summarizes a latency sample: the median and the highest
// percentile with at least ten samples beyond it (p99 from 1000 samples up).
type latStats struct {
	N       int     `json:"n"`
	P50ms   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tailms  float64 `json:"tail_ms"`
	Maxms   float64 `json:"max_ms"`
}

func summarize(lats []time.Duration) latStats {
	n := len(lats)
	if n == 0 {
		return latStats{}
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	st := latStats{N: n, P50ms: ms(s[(n-1)/2]), Maxms: ms(s[n-1])}
	switch {
	case n >= 1000:
		i := int(math.Ceil(0.99*float64(n))) - 1
		st.TailPct, st.Tailms = 99, ms(s[i])
	case n > 10:
		i := n - 11
		st.TailPct, st.Tailms = 100*float64(i+1)/float64(n), ms(s[i])
	default:
		st.TailPct, st.Tailms = 100, ms(s[n-1])
	}
	return st
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runRecord identifies the runner class and inputs of a result, so results
// from different machines are never compared silently.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// StealFrac is the share of the machine's CPU time the hypervisor took
	// from this VM during the run: interference that slows every timing.
	StealFrac float64 `json:"steal_frac"`
}

func newRunRecord(workload string, seed int64, seconds int, trace bool) runRecord {
	return runRecord{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out revision, or "none" outside a git work tree
// (the benchmark also runs from plain source exports). Git may not search
// above the working directory nor read system configuration.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd), "GIT_CONFIG_NOSYSTEM=1")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// cpuTicks reads the machine's stolen and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
