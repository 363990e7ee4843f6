package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"neurocard/internal/faultinject"
	"neurocard/internal/query"
	"neurocard/internal/server"
)

// ladderReply is an estimate response normalized across both wire forms.
type ladderReply struct {
	status     int
	retryAfter string
	degraded   bool
	ests       []float64
	errs       []string // positional batch errors; nil when every query succeeded
	errBody    string   // the JSON error of a non-200 answer
}

// postLadder sends one estimate request of qs to model over JSON or NCB.
// single selects the single-query form (a JSON "query"; an NCB frame of one
// query is single by construction).
func postLadder(t *testing.T, ts *httptest.Server, model string, qs []server.QueryJSON, single, bin bool) ladderReply {
	t.Helper()
	seed := int64(5)
	var body []byte
	contentType := "application/json"
	if bin {
		decoded := make([]query.Query, len(qs))
		for i, qj := range qs {
			decoded[i] = mustDecode(t, qj)
		}
		body = server.AppendBinRequest(nil, model, &seed, decoded)
		contentType = server.ContentTypeBinary
	} else {
		req := server.EstimateRequest{Model: model, Seed: &seed}
		if single {
			req.Query = &qs[0]
		} else {
			req.Queries = qs
		}
		var err error
		if body, err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/estimate", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := ladderReply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	switch {
	case resp.StatusCode != http.StatusOK:
		var eb errorBody
		if err := json.Unmarshal(raw.Bytes(), &eb); err != nil {
			t.Fatalf("%d answer is not a JSON error: %s", resp.StatusCode, raw.Bytes())
		}
		out.errBody = eb.Error
	case bin:
		br, err := server.DecodeBinResponse(raw.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out.degraded, out.ests, out.errs = br.Degraded, br.Ests, br.Errs
	default:
		var er server.EstimateResponse
		if err := json.Unmarshal(raw.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		out.degraded, out.ests, out.errs = er.Degraded, er.Ests, er.Errors
		if single {
			if er.Est == nil {
				t.Fatalf("single answer without est: %s", raw.Bytes())
			}
			out.ests = []float64{*er.Est}
		}
	}
	return out
}

// ladderCounters reads the three fault counters the ladder maintains.
func ladderCounters(t *testing.T, ts *httptest.Server) [3]int64 {
	t.Helper()
	exp := metricsBody(t, ts)
	var c [3]int64
	for i, name := range []string{
		"neurocard_nonfinite_estimates_total",
		"neurocard_fallback_total",
		"neurocard_request_timeouts_total",
	} {
		v, err := strconv.ParseInt(metricValue(t, exp, name), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		c[i] = v
	}
	return c
}

// TestEstimateLadder pins the one fault ladder every estimate runs through,
// over every way a request reaches it: monolithic or logical model, single
// or batch, JSON or NCB, under each fault state. A query of the monolithic
// model is one ladder item; a query of the logical model crosses both
// shards, so it is two items, one per shard group — except that a single
// query stops at its first failing shard.
func TestEstimateLadder(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir, "fig4", buildEstimator(t, 7, 512))
	buildFleet(t, dir)

	type state struct {
		name       string
		noFallback bool
		nan        bool // arm estimate-nan=1 for the request under test
		tripped    bool // open the breaker(s) first
	}
	states := []state{
		{name: "healthy"},
		{name: "nan-fallback", nan: true},
		{name: "nan-nofallback", nan: true, noFallback: true},
		{name: "open-fallback", tripped: true},
		{name: "open-nofallback", tripped: true, noFallback: true},
	}
	models := []struct {
		name, model string
		q           server.QueryJSON
		subs        int64 // ladder items per query
	}{
		{"monolithic", "fig4", fullJoin, 1},
		{"logical", "fleet", crossQ, 2},
	}

	for _, m := range models {
		for _, single := range []bool{true, false} {
			for _, bin := range []bool{false, true} {
				for _, st := range states {
					shape, wire := "batch", "json"
					if single {
						shape = "single"
					}
					if bin {
						wire = "ncb"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%s", m.name, shape, wire, st.name), func(t *testing.T) {
						cfg := aggressiveBreaker()
						cfg.NoFallback = st.noFallback
						cfg.ModelsDir = dir
						cfg.Workers = 2
						srv := server.New(cfg)
						t.Cleanup(srv.Close)
						ts := httptest.NewServer(srv.Handler())
						t.Cleanup(ts.Close)
						if m.model == "fleet" {
							loadFleet(t, ts)
						} else if resp, body := post(t, ts.URL+"/v1/models/fig4/load", nil); resp.StatusCode != http.StatusOK {
							t.Fatalf("load: %d %s", resp.StatusCode, body)
						}

						if st.tripped {
							// Four faulted single requests fill every touched
							// breaker's window with failures.
							armFaults(t, "estimate-nan=1")
							for i := 0; i < 4; i++ {
								postLadder(t, ts, m.model, []server.QueryJSON{m.q}, true, false)
							}
							faultinject.Disarm()
						}
						if st.nan {
							armFaults(t, "estimate-nan=1")
						}
						qs := []server.QueryJSON{m.q, m.q}
						if single {
							qs = qs[:1]
						}
						before := ladderCounters(t, ts)
						got := postLadder(t, ts, m.model, qs, single, bin)
						faultinject.Disarm()
						after := ladderCounters(t, ts)

						items := int64(len(qs)) * m.subs
						var (
							wantStatus   = http.StatusOK
							wantRetry    = ""
							wantDegraded = false
							wantErr      = "" // substring of every positional or body error
							wantDelta    [3]int64
						)
						switch st.name {
						case "nan-fallback":
							wantDegraded = true
							wantDelta = [3]int64{items, items, 0}
						case "nan-nofallback":
							wantErr = "non-finite"
							wantDelta = [3]int64{items, 0, 0}
							if single {
								wantStatus = http.StatusInternalServerError
								wantDelta[0] = 1
							}
						case "open-fallback":
							wantDegraded = true
							wantDelta = [3]int64{0, items, 0}
						case "open-nofallback":
							wantErr = "circuit open"
							if single {
								wantStatus, wantRetry = http.StatusServiceUnavailable, "1"
							}
						}

						if got.status != wantStatus || got.retryAfter != wantRetry {
							t.Fatalf("status %d Retry-After %q, want %d %q (error %q)",
								got.status, got.retryAfter, wantStatus, wantRetry, got.errBody)
						}
						if delta := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}; delta != wantDelta {
							t.Errorf("counter deltas (nonfinite, fallback, timeouts) = %v, want %v", delta, wantDelta)
						}
						if got.status != http.StatusOK {
							if !strings.Contains(got.errBody, wantErr) {
								t.Fatalf("error %q, want it to mention %q", got.errBody, wantErr)
							}
							return
						}
						if got.degraded != wantDegraded {
							t.Errorf("degraded = %v, want %v", got.degraded, wantDegraded)
						}
						if len(got.ests) != len(qs) {
							t.Fatalf("%d estimates for %d queries", len(got.ests), len(qs))
						}
						if wantErr == "" {
							if got.errs != nil {
								t.Fatalf("positional errors %q, want none", got.errs)
							}
							for i, est := range got.ests {
								if !(est > 0) {
									t.Fatalf("estimate %d = %g, want positive", i, est)
								}
							}
							return
						}
						if len(got.errs) != len(qs) {
							t.Fatalf("positional errors %q, want one per query", got.errs)
						}
						for i, e := range got.errs {
							if !strings.Contains(e, wantErr) || got.ests[i] != 0 {
								t.Fatalf("query %d: est %g error %q, want 0 and %q", i, got.ests[i], e, wantErr)
							}
						}
					})
				}
			}
		}
	}
}
