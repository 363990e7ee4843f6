package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// toySizes runs every workload in a few seconds.
var toySizes = sizes{
	Scale:         0.02,
	TrainTuples:   1024,
	Setups:        1,
	Rates:         []float64{20, 40, 60},
	RateShare:     []float64{0.3, 0.4, 0.3},
	ShardBatch:    4,
	ShardRate:     20,
	IngestRate:    8,
	IngestRows:    8,
	RefreshEvery:  4,
	RefreshTuples: 256,
	Golden:        20,
	CheckEvery:    4,
}

// spec is the part of BENCHMARK.json the smoke test checks the benchmark
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at toy size, untraced and
// traced, and checks that the run is correct and emits exactly the declared
// metrics with their units (end-to-end ones never 0).
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	t.Chdir(t.TempDir())
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(io.Discard, w.Name, 3, 1, traced, toySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
