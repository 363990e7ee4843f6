package core_test

import (
	"math/rand"
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/query"
	"neurocard/internal/workload"
)

// benchEstimator builds an untrained (but fully wired) NeuroCard estimator
// over a small synthetic JOB-light instance plus a query workload. Untrained
// weights produce valid conditionals, so this measures pure inference cost.
func benchEstimator(b *testing.B, prec core.Precision) (*core.Estimator, []query.Query) {
	b.Helper()
	d, err := datagen.JOBLight(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ContentCols = d.ContentCols
	cfg.PSamples = 128
	cfg.Precision = prec
	est, err := core.Build(d.Schema, cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.JOBLightRanges(d, 32, 7)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]query.Query, len(wl.Queries))
	for i, lq := range wl.Queries {
		qs[i] = lq.Query
	}
	return est, qs
}

// benchPrecisions are the serving widths every estimate benchmark runs at —
// the float64/float32 comparison tracked in EXPERIMENTS.md.
var benchPrecisions = []core.Precision{core.PrecisionFloat64, core.PrecisionFloat32}

// BenchmarkEstimateLatency is the serving-throughput baseline tracked in
// EXPERIMENTS.md: single-query progressive-sampling latency, per serving
// precision. It reports queries/sec alongside allocs/op so hot-path
// regressions are visible.
//
// The float64/float32 sub-benchmarks run the historical untrained
// DefaultConfig model. perfbench/<precision> runs the model perfbench
// serves: the harness.Quick() shape trained on 16384 tuples of JOB-light at
// scale 0.08, estimating the fixed JOB-light query set on serial kernels, as
// the daemon's batch workers do.
func BenchmarkEstimateLatency(b *testing.B) {
	for _, prec := range benchPrecisions {
		b.Run(string(prec), func(b *testing.B) {
			est, qs := benchEstimator(b, prec)
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateWithSamples(qs[i%len(qs)], 128, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
	b.Run("perfbench", func(b *testing.B) {
		est, qs := perfbenchEstimator(b)
		for _, prec := range benchPrecisions {
			b.Run(string(prec), func(b *testing.B) {
				if err := est.SetPrecision(prec); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := est.EstimateIndexedSerial(qs[i%len(qs)], int64(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			})
		}
	})
}

// perfbenchEstimator trains the model perfbench serves (perfbenchSetup,
// 16384 tuples) and returns it with the fixed JOB-light query set.
func perfbenchEstimator(b *testing.B) (*core.Estimator, []query.Query) {
	b.Helper()
	d, cfg := perfbenchSetup(b)
	est, err := core.Build(d.Schema, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := est.Train(16384); err != nil {
		b.Fatal(err)
	}
	wl, err := workload.JOBLight(d, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]query.Query, len(wl.Queries))
	for i, lq := range wl.Queries {
		qs[i] = lq.Query
	}
	return est, qs
}

// BenchmarkEstimateBatch measures concurrent batch throughput across worker
// sessions (the serving configuration), per serving precision.
func BenchmarkEstimateBatch(b *testing.B) {
	for _, prec := range benchPrecisions {
		b.Run(string(prec), func(b *testing.B) {
			est, qs := benchEstimator(b, prec)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for n < b.N {
				if _, err := est.EstimateBatch(qs, 8); err != nil {
					b.Fatal(err)
				}
				n += len(qs)
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}
