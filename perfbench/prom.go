package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSnap is one /metrics scrape: every sample keyed by its metric name,
// with the values of all label sets of that name summed (the benchmark only
// needs totals across models and shards).
type promSnap map[string]float64

func scrape(client *http.Client, base string) (promSnap, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parse /metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") || strings.Contains(name[i:], "quantile=") {
				continue // histogram buckets and summary quantiles do not sum
			}
			name = name[:i]
		}
		snap[name] += v
	}
	return snap, sc.Err()
}

// counterNames are the /metrics counters every phase reports as deltas.
var counterNames = []string{
	"neurocard_estimate_requests_total",
	"neurocard_estimate_queries_total",
	"neurocard_estimate_errors_total",
	"neurocard_plan_cache_hits_total",
	"neurocard_plan_cache_misses_total",
	"neurocard_plan_cache_evictions_total",
	"neurocard_plan_cache_invalidations_total",
	"neurocard_fused_batch_size_sum",
	"neurocard_fused_batch_size_count",
	"neurocard_coalesce_rejected_total",
	"neurocard_fallback_total",
	"neurocard_request_timeouts_total",
	"neurocard_binary_requests_total",
	"neurocard_request_latency_seconds_sum",
	"neurocard_request_latency_seconds_count",
	"neurocard_ingest_rows_acked_total",
	"neurocard_ingest_failed_total",
	"neurocard_refresh_total",
	"neurocard_refresh_failures_total",
	"neurocard_refresh_checkpoint_skips_total",
	"neurocard_logical_queries_total",
	"neurocard_shard_routed_total",
}

// delta returns after − before for every counter in counterNames.
func delta(before, after promSnap) map[string]float64 {
	d := make(map[string]float64, len(counterNames))
	for _, n := range counterNames {
		d[n] = after[n] - before[n]
	}
	return d
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
