package core_test

import (
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/harness"
)

// BenchmarkTrainThroughput is the construction-cost baseline tracked in
// EXPERIMENTS.md: end-to-end training steps (sampler → encoder → gradient
// step) on a small synthetic JOB-light instance. One op is one gradient step
// of BatchSize tuples; tuples/sec is reported alongside allocs/op so
// training-path regressions are visible the same way serving ones are.
//
// default is the historical shape (DefaultConfig model, scale 0.05, one
// sampler worker). perfbench is the model perfbench trains during every
// set-up: the harness.Quick() options at JOB-light scale 0.08, batch 256.
func BenchmarkTrainThroughput(b *testing.B) {
	b.Run("default", func(b *testing.B) {
		d, err := datagen.JOBLight(datagen.Config{Seed: 1, Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.ContentCols = d.ContentCols
		cfg.BatchSize = 256
		cfg.SamplerWorkers = 1
		benchTrain(b, d, cfg)
	})
	b.Run("perfbench", func(b *testing.B) {
		d, cfg := perfbenchSetup(b)
		benchTrain(b, d, cfg)
	})
}

// perfbenchSetup returns the data and configuration of the model perfbench
// trains: the harness.Quick() options over JOB-light at scale 0.08.
func perfbenchSetup(b *testing.B) (*datagen.Dataset, core.Config) {
	b.Helper()
	o := harness.Quick()
	d, err := datagen.JOBLight(datagen.Config{Seed: o.Seed, Scale: o.DataScale})
	if err != nil {
		b.Fatal(err)
	}
	return d, core.Config{
		Model:          o.Model,
		FactBits:       o.FactBits,
		ContentCols:    d.ContentCols,
		BatchSize:      o.BatchSize,
		WildcardProb:   0.5,
		SamplerWorkers: o.SamplerWorkers,
		Seed:           o.Seed,
		PSamples:       o.PSamples,
	}
}

// benchTrain builds an estimator and times b.N gradient steps of Train.
func benchTrain(b *testing.B, d *datagen.Dataset, cfg core.Config) {
	est, err := core.Build(d.Schema, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := est.Train(b.N * cfg.BatchSize); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*cfg.BatchSize)/b.Elapsed().Seconds(), "tuples/sec")
}
