package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"neurocard/internal/server"
)

// TestServeTwoPrecisionsConcurrently loads the same checkpoint under two
// names — one at the daemon default (float64), one at float32 via the
// per-load override — and checks the registry serves both widths side by
// side: correct precision and weight-bytes metadata on /v1/models, the
// matching neurocard_model_weight_bytes and neurocard_model_precision_info
// gauges on /metrics (float32 exactly half), and concurrent estimates
// against both models under load.
func TestServeTwoPrecisionsConcurrently(t *testing.T) {
	_, ts, dir := serveTest(t)
	wideEst := buildEstimator(t, 7, 512)
	writeCheckpoint(t, dir, "wide", wideEst)
	writeCheckpoint(t, dir, "narrow", buildEstimator(t, 7, 512))

	resp, body := post(t, ts.URL+"/v1/models/wide/load", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load wide: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/models/narrow/load", server.LoadRequest{Precision: "float32"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load narrow: %d %s", resp.StatusCode, body)
	}

	// Metadata: same parameter count, so float32 weight bytes are exactly
	// half the float64 entry's parameter bytes (the float64 entry also
	// counts its derived AVX layouts, which float32 has no counterpart of).
	resp, body = get(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models: %d %s", resp.StatusCode, body)
	}
	var mr server.ModelsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	infos := map[string]server.ModelInfo{}
	for _, m := range mr.Models {
		infos[m.Name] = m
	}
	wide, narrow := infos["wide"], infos["narrow"]
	if wide.Precision != "float64" || narrow.Precision != "float32" {
		t.Fatalf("precisions: wide %q, narrow %q", wide.Precision, narrow.Precision)
	}
	derived := wideEst.Model().DerivedBytes64()
	if wide.WeightBytes <= 0 || narrow.WeightBytes*2 != wide.WeightBytes-derived {
		t.Fatalf("weight bytes: wide %d (%d derived), narrow %d (want narrow = (wide-derived)/2)",
			wide.WeightBytes, derived, narrow.WeightBytes)
	}

	// The same numbers must surface as Prometheus gauges.
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	metrics := string(body)
	for _, want := range []string{
		fmt.Sprintf(`neurocard_model_weight_bytes{model="wide"} %d`, wide.WeightBytes),
		fmt.Sprintf(`neurocard_model_weight_bytes{model="narrow"} %d`, narrow.WeightBytes),
		`neurocard_model_precision_info{model="wide",precision="float64"} 1`,
		`neurocard_model_precision_info{model="narrow",precision="float32"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Both widths must answer estimates concurrently; identical checkpoints
	// under the same seed keep the two widths within rounding of each other,
	// so a cross-model mixup (wrong pool, shared session) shows up as a
	// wildly different or invalid estimate.
	ests := map[string][]float64{"wide": make([]float64, 8), "narrow": make([]float64, 8)}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for model, out := range ests {
		for i := range out {
			wg.Add(1)
			go func(model string, i int, out []float64) {
				defer wg.Done()
				seed := int64(50 + i)
				resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
					Model: model,
					Query: &server.QueryJSON{Tables: []string{"A", "B", "C"}},
					Seed:  &seed,
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s estimate %d: %d %s", model, i, resp.StatusCode, body)
					return
				}
				var er server.EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					errs <- err
					return
				}
				if er.Est == nil || *er.Est < 1 || math.IsNaN(*er.Est) || math.IsInf(*er.Est, 0) {
					errs <- fmt.Errorf("%s estimate %d: bad response %s", model, i, body)
					return
				}
				out[i] = *er.Est
			}(model, i, out)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range ests["wide"] {
		w, n := ests["wide"][i], ests["narrow"][i]
		if qerr := math.Max(w/n, n/w); qerr > 1.5 {
			t.Errorf("seed %d: float64 %g vs float32 %g (q-error %.3f)", 50+i, w, n, qerr)
		}
	}
}

// TestLoadPrecisionDefaultAndOverride checks the precedence chain: the
// server-wide default applies when a load names no precision, a per-load
// precision overrides it, and a bad spelling fails the load without
// registering anything.
func TestLoadPrecisionDefaultAndOverride(t *testing.T) {
	dir := t.TempDir()
	srv := server.New(server.Config{ModelsDir: dir, Workers: 2, DefaultPrecision: "float32"})
	defer srv.Close()
	writeCheckpoint(t, dir, "m", buildEstimator(t, 7, 256))

	entry, err := srv.Registry().Load("m", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(entry.Est.Precision()); got != "float32" {
		t.Fatalf("default-precision load serves %q, want float32", got)
	}
	entry, err = srv.Registry().LoadPrecision("m", "", "float64")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(entry.Est.Precision()); got != "float64" {
		t.Fatalf("per-load override serves %q, want float64", got)
	}
	if _, err := srv.Registry().LoadPrecision("m2", "", "float16"); err == nil {
		t.Fatal("bad precision accepted")
	}
	if _, err := srv.Registry().Get("m2"); err == nil {
		t.Fatal("failed load registered a model")
	}
}
