package core_test

import (
	"math"
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/query"
	"neurocard/internal/value"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want core.Precision
	}{
		{"", core.PrecisionFloat64},
		{"float64", core.PrecisionFloat64},
		{"f64", core.PrecisionFloat64},
		{"64", core.PrecisionFloat64},
		{"float32", core.PrecisionFloat32},
		{"f32", core.PrecisionFloat32},
		{"32", core.PrecisionFloat32},
	}
	for _, tc := range cases {
		got, err := core.ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"float16", "double", "FLOAT32", " float64"} {
		if _, err := core.ParsePrecision(bad); err == nil {
			t.Errorf("ParsePrecision(%q) accepted", bad)
		}
	}
}

// trainedFigure4 builds and briefly trains a MADE estimator over the paper's
// running example, the fixture the precision-switch tests share.
func trainedFigure4(t *testing.T, seed int64) *core.Estimator {
	t.Helper()
	s := figure4(t)
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 24
	cfg.Model.EmbedDim = 6
	cfg.Model.Blocks = 1
	cfg.PSamples = 256
	cfg.BatchSize = 64
	cfg.Seed = seed
	cfg.ContentCols = map[string][]string{"A": {"x", "year"}, "B": {"x", "y"}, "C": {"y"}}
	est, err := core.Build(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(512); err != nil {
		t.Fatal(err)
	}
	return est
}

// TestSetPrecisionSwitchesWidth covers the serving-width switch end to end:
// default reporting, weight-bytes halving at float32, round-tripping back to
// float64, and spelling validation.
func TestSetPrecisionSwitchesWidth(t *testing.T) {
	est := trainedFigure4(t, 21)
	if got := est.Precision(); got != core.PrecisionFloat64 {
		t.Fatalf("default precision = %v, want float64", got)
	}
	bytes64 := est.ServingWeightBytes()
	if bytes64 <= 0 || bytes64%8 != 0 {
		t.Fatalf("float64 ServingWeightBytes = %d, want positive multiple of 8", bytes64)
	}
	if err := est.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	if got := est.Precision(); got != core.PrecisionFloat32 {
		t.Fatalf("precision after SetPrecision(f32) = %v", got)
	}
	// The float32 view is half the float64 parameters; the float64 view's
	// derived layouts (AVX hosts only) have no float32 counterpart.
	params64 := bytes64 - est.Model().DerivedBytes64()
	if params64 != est.Model().NumParams()*8 {
		t.Fatalf("float64 ServingWeightBytes = %d, want %d params × 8 + %d derived",
			bytes64, est.Model().NumParams(), est.Model().DerivedBytes64())
	}
	if got := est.ServingWeightBytes(); got != params64/2 {
		t.Fatalf("float32 ServingWeightBytes = %d, want half of %d", got, params64)
	}
	if err := est.SetPrecision("bfloat16"); err == nil {
		t.Fatal("SetPrecision accepted an unknown width")
	}
	if got := est.Precision(); got != core.PrecisionFloat32 {
		t.Fatalf("failed SetPrecision changed the width to %v", got)
	}
	if err := est.SetPrecision(core.PrecisionFloat64); err != nil {
		t.Fatal(err)
	}
	if got := est.ServingWeightBytes(); got != bytes64 {
		t.Fatalf("ServingWeightBytes after switching back = %d, want %d", got, bytes64)
	}
}

// TestSetPrecisionRejectsNonMade: generic ProbSources (the exact oracle)
// speak float64 only, so float32 serving must be refused without breaking
// the estimator.
func TestSetPrecisionRejectsNonMade(t *testing.T) {
	est := oracleEstimator(t, figure4(t), 0, 64, 9)
	if err := est.SetPrecision(core.PrecisionFloat32); err == nil {
		t.Fatal("float32 serving accepted for a non-MADE conditional source")
	}
	if _, err := est.Estimate(query.Query{Tables: []string{"B"}}); err != nil {
		t.Fatalf("estimator unusable after rejected SetPrecision: %v", err)
	}
}

// TestFloat32EstimatesTrackFloat64 re-serves the same seeded queries after a
// width switch and bounds the cross-width drift. The widths are not
// bit-comparable — a float32 conditional can flip a sampled token when the
// draw lands within rounding distance of a CDF boundary — so the assertion
// is the serving-level one the accuracy gate formalizes: per-query estimates
// within a small q-error factor of each other.
func TestFloat32EstimatesTrackFloat64(t *testing.T) {
	est := trainedFigure4(t, 33)
	queries := []query.Query{
		{Tables: []string{"A", "B", "C"}},
		{Tables: []string{"B"}},
		{Tables: []string{"A", "B"},
			Filters: []query.Filter{{Table: "A", Col: "year", Op: query.OpGe, Val: value.Int(1995)}}},
		{Tables: []string{"A", "B", "C"},
			Filters: []query.Filter{{Table: "A", Col: "x", Op: query.OpEq, Val: value.Int(2)}}},
	}
	ests64 := make([]float64, len(queries))
	for i, q := range queries {
		v, err := est.EstimateSeededIndexed(q, 7, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ests64[i] = v
	}
	if err := est.SetPrecision(core.PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		v, err := est.EstimateSeededIndexed(q, 7, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) || v < 1 {
			t.Fatalf("query %d: float32 estimate %v", i, v)
		}
		qerr := math.Max(v/ests64[i], ests64[i]/v)
		if qerr > 1.5 {
			t.Errorf("query %d: float32 estimate %v vs float64 %v (q-error %.3f)", i, v, ests64[i], qerr)
		}
	}
}

// TestBuildWithConfiguredPrecision: Config.Precision selects the width at
// construction (the path checkpoints restore through), and a bad spelling is
// rejected up front.
func TestBuildWithConfiguredPrecision(t *testing.T) {
	s := figure4(t)
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 16
	cfg.Model.EmbedDim = 4
	cfg.PSamples = 64
	cfg.Seed = 2
	cfg.Precision = "f32"
	est, err := core.Build(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Precision(); got != core.PrecisionFloat32 {
		t.Fatalf("built precision = %v, want float32", got)
	}
	if _, err := est.Estimate(query.Query{Tables: []string{"A"}}); err != nil {
		t.Fatal(err)
	}
	cfg.Precision = "half"
	if _, err := core.Build(s, cfg); err == nil {
		t.Fatal("Build accepted an unknown precision")
	}
}
