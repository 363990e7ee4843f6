// Package server exposes trained NeuroCard estimators over an HTTP JSON API:
// a model registry with atomic hot swap, single/batch/seeded estimation on
// the pooled zero-alloc inference machinery, health and metrics endpoints,
// and a load-test harness hook. cmd/neurocardd is the daemon wrapper.
//
// # Request path
//
// Concurrent single-query requests coalesce into batched estimates through
// a per-model fuser (DESIGN.md §2.5); the same endpoint speaks a compact
// binary protocol. Every estimate — single or batch, monolithic or logical —
// runs through one fault ladder (Server.ladder, DESIGN.md §2.6): requests
// carry deadlines end to end, a per-model circuit breaker routes repeated
// model failures to a histogram fallback estimator, non-finite estimates
// never leave the process, and panics are contained per query. Coalescing
// and the wire format never change results: each query keeps its own
// (seed, index) randomness.
//
// # Models and precision
//
// Registry entries are immutable; a hot reload builds the replacement off
// to the side and swaps the pointer, so in-flight requests finish on the
// old model. Each load may choose its serving precision — the daemon-wide
// default (-precision), a per-load override (LoadRequest.Precision), or the
// checkpoint's own — and models at different widths serve concurrently.
// /metrics exports per-model resident kernel bytes
// (neurocard_model_weight_bytes) and the active width
// (neurocard_model_precision_info) alongside the latency, SLO, breaker,
// coalescer, and plan-cache series.
package server
