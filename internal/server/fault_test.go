package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neurocard/internal/faultinject"
	"neurocard/internal/query"
	"neurocard/internal/server"
)

// ---- helpers ----

// serveFault stands up a server with an explicit fault-tolerance config; the
// models dir is a fresh temp dir, as in serveTest.
func serveFault(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.ModelsDir = dir
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, dir
}

// armFaults arms the fault-injection layer from a spec string and disarms it
// when the test ends. Tests using it must not run in parallel: the armed
// config is process-global.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	cfg, err := faultinject.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	faultinject.Arm(cfg)
	t.Cleanup(faultinject.Disarm)
}

// postHdr is post with extra request headers.
func postHdr(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// loadModel trains, checkpoints, and loads fig4 under the given name.
func loadModel(t *testing.T, ts *httptest.Server, dir, name string) {
	t.Helper()
	writeCheckpoint(t, dir, name, buildEstimator(t, 7, 512))
	resp, body := post(t, ts.URL+"/v1/models/"+name+"/load", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load %s: %d %s", name, resp.StatusCode, body)
	}
}

func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	return string(body)
}

// metricValue extracts the value line "name v" (unlabeled) from an exposition.
func metricValue(t *testing.T, exposition, name string) string {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("metric %s missing from exposition", name)
	return ""
}

var fullJoin = server.QueryJSON{Tables: []string{"A", "B", "C"}}

func singleEstimate(seed int64) server.EstimateRequest {
	q := fullJoin
	return server.EstimateRequest{Query: &q, Seed: &seed}
}

// ---- deadlines ----

func TestDeadlineOverHTTP(t *testing.T) {
	_, ts, dir := serveFault(t, server.Config{})
	loadModel(t, ts, dir, "fig4")

	// Malformed deadline header: rejected up front.
	resp, body := postHdr(t, ts.URL+"/v1/estimate", singleEstimate(1),
		map[string]string{"X-Deadline-Ms": "soon"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header: %d %s", resp.StatusCode, body)
	}

	// Slow every sampling kernel and give the request a 1ms budget: the
	// cooperative cancellation inside the sampling loop must surface as 504.
	armFaults(t, "kernel-delay=1:20ms")
	start := time.Now()
	resp, body = postHdr(t, ts.URL+"/v1/estimate", singleEstimate(1),
		map[string]string{"X-Deadline-Ms": "1"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline expiry: %d %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("504 took %v; cancellation is not cooperative", elapsed)
	}
	var er errorBody
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("504 body is not a JSON error: %s", body)
	}
	if got := metricValue(t, metricsBody(t, ts), "neurocard_request_timeouts_total"); got == "0" {
		t.Fatal("neurocard_request_timeouts_total did not increment on a 504")
	}

	// Faults off: the same request with the same deadline serves normally —
	// the timeout left no residue.
	faultinject.Disarm()
	resp, body = postHdr(t, ts.URL+"/v1/estimate", singleEstimate(1),
		map[string]string{"X-Deadline-Ms": "5000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout estimate: %d %s", resp.StatusCode, body)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func TestDeadlineInBatch(t *testing.T) {
	_, ts, dir := serveFault(t, server.Config{})
	loadModel(t, ts, dir, "fig4")

	armFaults(t, "kernel-delay=1:20ms")
	seed := int64(3)
	resp, body := postHdr(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Queries: []server.QueryJSON{fullJoin, fullJoin},
		Seed:    &seed,
	}, map[string]string{"X-Deadline-Ms": "1"})
	// Batches answer 200 with positional errors; expired items carry the
	// deadline error.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Errors) != 2 {
		t.Fatalf("batch response has no positional errors: %s", body)
	}
	for i, e := range er.Errors {
		if !strings.Contains(e, "deadline") {
			t.Fatalf("batch item %d error = %q, want deadline exceeded", i, e)
		}
	}
}

// ---- sanity guard + fallback ----

func TestNaNGuardServesFallbackDegraded(t *testing.T) {
	_, ts, dir := serveFault(t, server.Config{})
	loadModel(t, ts, dir, "fig4")

	// Every model estimate comes back NaN; the guard must reject it and the
	// histogram fallback must absorb the request, marked degraded.
	armFaults(t, "estimate-nan=1")
	resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate under NaN faults: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded {
		t.Fatalf("NaN-masked response not marked degraded: %s", body)
	}
	if er.Est == nil || *er.Est <= 0 {
		t.Fatalf("degraded estimate missing or non-positive: %s", body)
	}

	exp := metricsBody(t, ts)
	if metricValue(t, exp, "neurocard_nonfinite_estimates_total") == "0" {
		t.Fatal("nonfinite guard did not count the NaN")
	}
	if metricValue(t, exp, "neurocard_fallback_total") == "0" {
		t.Fatal("fallback serve did not count")
	}
}

func TestNaNGuardWithoutFallbackIs500(t *testing.T) {
	_, ts, dir := serveFault(t, server.Config{NoFallback: true})
	loadModel(t, ts, dir, "fig4")

	armFaults(t, "estimate-nan=1")
	resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(1))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("NaN with no fallback: %d %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "non-finite") {
		t.Fatalf("body = %s, want the sanity-guard error", body)
	}
}

func TestInjectedPanicIsContained(t *testing.T) {
	srv, ts, dir := serveFault(t, server.Config{NoFallback: true})
	loadModel(t, ts, dir, "fig4")

	armFaults(t, "estimate-panic=1")
	resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(1))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: %d %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Fatalf("body = %s, want the estimate-panic error", body)
	}

	// The panic must not have leaked a session or killed the coalescer:
	// with faults off the very next request serves fine.
	faultinject.Disarm()
	resp, body = post(t, ts.URL+"/v1/estimate", singleEstimate(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic estimate: %d %s", resp.StatusCode, body)
	}
	_ = srv
}

// ---- circuit breaker over HTTP ----

// aggressiveBreaker trips after 4 outcomes at ≥50% failures and stays open
// effectively forever (1h cooldown), so tests observe the open state stably.
func aggressiveBreaker() server.Config {
	return server.Config{
		BreakerWindow:     4,
		BreakerMinSamples: 4,
		BreakerThreshold:  0.5,
		BreakerCooldown:   time.Hour,
	}
}

func TestBreakerTripsToDegradedServing(t *testing.T) {
	_, ts, dir := serveFault(t, aggressiveBreaker())
	loadModel(t, ts, dir, "fig4")

	// Four NaN faults fill the window and trip the breaker; each is already
	// masked by the fallback, so clients only ever see well-formed answers.
	armFaults(t, "estimate-nan=1")
	for i := 0; i < 4; i++ {
		resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(int64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d under faults: %d %s", i, resp.StatusCode, body)
		}
	}
	faultinject.Disarm()

	// Breaker is now open: requests serve from the fallback, degraded, even
	// though the model would be healthy again.
	resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-breaker estimate: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded || er.Est == nil || *er.Est <= 0 {
		t.Fatalf("open-breaker response = %s, want degraded fallback estimate", body)
	}

	// Batch requests degrade whole-request.
	seed := int64(1)
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Queries: []server.QueryJSON{fullJoin, fullJoin}, Seed: &seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-breaker batch: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded || len(er.Ests) != 2 || er.Ests[0] <= 0 || er.Ests[1] <= 0 {
		t.Fatalf("open-breaker batch response = %s", body)
	}

	// The binary protocol carries the degraded flag too (wire round trip).
	q, err := server.DecodeQuery(fullJoin)
	if err != nil {
		t.Fatal(err)
	}
	frame := server.AppendBinRequest(nil, "", &seed, []query.Query{q})
	httpResp, err := http.Post(ts.URL+"/v1/estimate", server.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("binary open-breaker estimate: %d %s", httpResp.StatusCode, out.Bytes())
	}
	bresp, err := server.DecodeBinResponse(out.Bytes())
	if err != nil {
		t.Fatalf("binary response malformed while degraded: %v", err)
	}
	if !bresp.Degraded || len(bresp.Ests) != 1 || bresp.Ests[0] <= 0 {
		t.Fatalf("binary degraded response = %+v", bresp)
	}

	// Observability: breaker state + opens on /metrics, degraded on the
	// health surfaces — while /readyz keeps the instance in rotation.
	exp := metricsBody(t, ts)
	if !strings.Contains(exp, `neurocard_breaker_state{model="fig4"} 2`) {
		t.Fatalf("metrics missing open breaker state:\n%s", exp)
	}
	if !strings.Contains(exp, `neurocard_breaker_opens_total{model="fig4"} 1`) {
		t.Fatal("metrics missing breaker opens count")
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded readyz = %d, want 200 (still serving)", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"degraded":true`) {
		t.Fatalf("readyz body = %s, want degraded:true", body)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"degraded":true`) {
		t.Fatalf("healthz = %d %s, want 200 + degraded:true", resp.StatusCode, body)
	}
}

func TestBreakerOpenWithoutFallbackIs503(t *testing.T) {
	cfg := aggressiveBreaker()
	cfg.NoFallback = true
	_, ts, dir := serveFault(t, cfg)
	loadModel(t, ts, dir, "fig4")

	armFaults(t, "estimate-nan=1")
	for i := 0; i < 4; i++ {
		resp, _ := post(t, ts.URL+"/v1/estimate", singleEstimate(int64(i)))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: %d, want 500 (no fallback to mask)", i, resp.StatusCode)
		}
	}
	faultinject.Disarm()

	resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(9))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker, no fallback: %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "circuit open") {
		t.Fatalf("503 body = %s", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("open-breaker 503 without Retry-After header")
	}
}

// TestFallbackQErrorSanity pins the fallback's usefulness: on the fig4
// schema its estimate for the full join must be within a modest q-error of
// the true cardinality (4 rows), not just finite.
func TestFallbackQErrorSanity(t *testing.T) {
	_, ts, dir := serveFault(t, aggressiveBreaker())
	loadModel(t, ts, dir, "fig4")

	armFaults(t, "estimate-nan=1")
	resp, body := post(t, ts.URL+"/v1/estimate", singleEstimate(1))
	faultinject.Disarm()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded estimate: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded || er.Est == nil {
		t.Fatalf("expected a degraded fallback estimate, got %s", body)
	}
	const truth = 4.0 // |A ⋈ B ⋈ C| for the fig4 fixture
	qerr := *er.Est / truth
	if qerr < 1 {
		qerr = truth / *er.Est
	}
	if qerr > 10 {
		t.Fatalf("fallback q-error %.2f (est %g, truth %g) exceeds sanity bound 10", qerr, *er.Est, truth)
	}
}

// ---- health surfaces ----

func TestReadyzLivezLifecycle(t *testing.T) {
	_, ts, dir := serveFault(t, server.Config{})

	// No models: alive but not ready.
	resp, _ := get(t, ts.URL+"/livez")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez = %d, want 200 always", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty readyz = %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"ready":false`) {
		t.Fatalf("empty readyz body = %s", body)
	}

	loadModel(t, ts, dir, "fig4")
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ready":true`) {
		t.Fatalf("loaded readyz = %d %s, want 200 ready", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"degraded":false`) {
		t.Fatalf("healthy readyz reports degraded: %s", body)
	}
}

// ---- checkpoint quarantine ----

func TestCorruptCheckpointQuarantined(t *testing.T) {
	_, ts, dir := serveFault(t, server.Config{})

	// A healthy model first: the failed reload below must not evict it.
	loadModel(t, ts, dir, "fig4")

	bad := filepath.Join(dir, "fig4.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/models/fig4/load", nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("corrupt checkpoint loaded: %s", body)
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Fatalf("load error does not mention quarantine: %s", body)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still at %s (err=%v), want renamed aside", bad, err)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if got := metricValue(t, metricsBody(t, ts), "neurocard_checkpoints_quarantined_total"); got != "1" {
		t.Fatalf("quarantine counter = %s, want 1", got)
	}

	// The previously-published generation still serves.
	resp, body = post(t, ts.URL+"/v1/estimate", singleEstimate(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate after failed reload: %d %s", resp.StatusCode, body)
	}
}
