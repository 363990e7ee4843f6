package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/query"
	"neurocard/internal/shard"
)

// errShardMissing marks an estimate that needed a shard model the registry
// no longer holds (unloaded out from under its logical model). 503: the
// query is fine, the fleet is not.
var errShardMissing = errors.New("server: shard model not loaded")

// serveLogical answers an estimate request addressed to a logical model.
// Each query is split by the manifest's planner into per-shard sub-queries;
// every sub-query runs through the same fault ladder as a direct request to
// that shard — its breaker, coalescer, fallback, and sanity guard — and the
// results are multiplied together with the plan's cross-shard factor. Fault
// isolation is per shard: one open breaker degrades (or fails) only the
// queries that route through it, and the response's Degraded flag is set
// when any estimate leaned on a fallback. Shard entries are resolved per
// request, so each shard hot-swaps independently underneath the logical
// name; at a fixed seed, results are bit-deterministic across swaps of an
// identical checkpoint because every sub-query derives its randomness from
// (seed, query index) exactly like a direct request.
func (s *Server) serveLogical(ctx context.Context, w http.ResponseWriter, lg *Logical,
	queries []query.Query, seed *int64, workers int, single, bin bool, buf *[]byte,
	done func(int, bool)) {
	start := time.Now()
	if single {
		est, degraded, err := s.estimateLogical(ctx, lg, queries[0], seed)
		if err != nil {
			status := estimateStatus(err)
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			if status == http.StatusGatewayTimeout {
				s.metrics.timeoutsTotal.Add(1)
			}
			s.fail(w, status, err)
			done(0, true)
			return
		}
		if bin {
			s.replyBin(w, buf, lg.Name, []float64{est}, nil, degraded)
		} else {
			s.reply(w, http.StatusOK, EstimateResponse{
				Model:    lg.Name,
				Est:      &est,
				Degraded: degraded,
				Count:    1,
				Micros:   time.Since(start).Microseconds(),
			})
		}
		done(1, false)
		return
	}

	// Batch: plan every query, then run all sub-queries grouped per shard —
	// one registry resolution and one EstimateItems run per shard touched,
	// so a shard's pooled sessions see its whole slice of the batch at
	// once. Sub-query randomness is (seed, original query index) on every
	// shard, matching the monolithic batch convention per shard, so a
	// seeded batch is reproducible regardless of grouping.
	plans := make([]*shard.Plan, len(queries))
	errsOut := make([]error, len(queries))
	factors := make([]float64, len(queries))
	for i, q := range queries {
		pl, err := lg.Planner.Plan(q)
		if err != nil {
			errsOut[i] = err
			continue
		}
		plans[i] = pl
		factors[i] = pl.Factor
	}
	type pending struct {
		qi  int
		sub query.Query
	}
	byShard := make(map[string][]pending)
	var shardOrder []string
	for i, pl := range plans {
		if pl == nil {
			continue
		}
		for _, sub := range pl.Subs {
			if _, ok := byShard[sub.Shard]; !ok {
				shardOrder = append(shardOrder, sub.Shard)
			}
			byShard[sub.Shard] = append(byShard[sub.Shard], pending{i, sub.Query})
		}
	}
	anyDegraded := false
	for _, shardName := range shardOrder {
		work := byShard[shardName]
		s.metrics.routeToShard(lg.Name, shardName, int64(len(work)))
		entry, gerr := s.reg.Get(shardName)
		if gerr != nil {
			for _, p := range work {
				if errsOut[p.qi] == nil {
					errsOut[p.qi] = fmt.Errorf("shard %q: %w", shardName, errShardMissing)
				}
			}
			continue
		}
		br := entry.Breaker
		if br != nil && !br.allow() {
			// This shard's circuit is open: only its slice of the batch
			// degrades to the fallback (or fails without one); batchmates
			// routed elsewhere are untouched.
			for _, p := range work {
				if errsOut[p.qi] != nil {
					continue
				}
				if entry.Fallback == nil {
					errsOut[p.qi] = fmt.Errorf("shard %q: %w", shardName, errBreakerOpen)
					continue
				}
				fb, ferr := s.fallbackEstimate(entry, p.sub)
				if ferr != nil {
					errsOut[p.qi] = fmt.Errorf("shard %q: %w", shardName, ferr)
					continue
				}
				factors[p.qi] *= fb
				anyDegraded = true
				s.metrics.fallbackTotal.Add(1)
			}
			continue
		}
		base := entry.Est.Config().Seed
		if seed != nil {
			base = *seed
		}
		items := make([]core.BatchItem, len(work))
		for j, p := range work {
			items[j] = core.BatchItem{Query: p.sub, Seed: base, Idx: int64(p.qi), Ctx: ctx}
		}
		ests, errs := entry.Est.EstimateItems(items, s.estimateWorkers(workers, len(items)))
		for j, p := range work {
			serr := errs[j]
			if serr == nil && !finitePositive(ests[j]) {
				serr = fmt.Errorf("%w %g", errNonFinite, ests[j])
				s.metrics.nonfiniteTotal.Add(1)
			}
			if errors.Is(serr, context.DeadlineExceeded) {
				s.metrics.timeoutsTotal.Add(1)
			}
			if br != nil {
				if modelFault(serr) {
					br.record(true)
				} else if serr == nil {
					br.record(false)
				}
			}
			if serr != nil {
				if errsOut[p.qi] == nil {
					errsOut[p.qi] = fmt.Errorf("shard %q: %w", shardName, serr)
				}
				continue
			}
			factors[p.qi] *= ests[j]
		}
	}

	ests := make([]float64, len(queries))
	var errStrings []string
	nOK := 0
	for i := range queries {
		if errsOut[i] == nil && !finitePositive(factors[i]) {
			errsOut[i] = fmt.Errorf("%w %g (combined)", errNonFinite, factors[i])
			s.metrics.nonfiniteTotal.Add(1)
		}
		if errsOut[i] != nil {
			if errStrings == nil {
				errStrings = make([]string, len(queries))
			}
			errStrings[i] = errsOut[i].Error()
			continue
		}
		ests[i] = factors[i]
		nOK++
	}
	s.metrics.logicalQueries.Add(int64(nOK))
	if bin {
		s.replyBin(w, buf, lg.Name, ests, errStrings, anyDegraded)
	} else {
		s.reply(w, http.StatusOK, EstimateResponse{
			Model:    lg.Name,
			Ests:     ests,
			Errors:   errStrings,
			Degraded: anyDegraded,
			Count:    len(ests),
			Micros:   time.Since(start).Microseconds(),
		})
	}
	done(nOK, errStrings != nil)
}

// estimateLogical composes one query's estimate from its shard models,
// running each sub-query through estimateSingle (breaker, coalescer,
// fallback). The whole query fails on the first failing sub-estimate; a
// degraded sub-estimate degrades the composed result.
func (s *Server) estimateLogical(ctx context.Context, lg *Logical, q query.Query, seed *int64) (est float64, degraded bool, err error) {
	pl, err := lg.Planner.Plan(q)
	if err != nil {
		return 0, false, err
	}
	est = pl.Factor
	for _, sub := range pl.Subs {
		s.metrics.routeToShard(lg.Name, sub.Shard, 1)
		entry, gerr := s.reg.Get(sub.Shard)
		if gerr != nil {
			return 0, false, fmt.Errorf("shard %q: %w", sub.Shard, errShardMissing)
		}
		v, d, serr := s.estimateSingle(ctx, entry, sub.Shard, sub.Query, seed)
		if errors.Is(serr, errNotLoaded) {
			// The shard was unloaded between Get and the coalescer flush:
			// the same missing-shard 503 as the batch path, not a 404.
			serr = errShardMissing
		}
		if serr != nil {
			return 0, false, fmt.Errorf("shard %q: %w", sub.Shard, serr)
		}
		if d {
			degraded = true
			s.metrics.fallbackTotal.Add(1)
		}
		est *= v
	}
	if !finitePositive(est) {
		s.metrics.nonfiniteTotal.Add(1)
		return 0, false, fmt.Errorf("%w %g (combined)", errNonFinite, est)
	}
	s.metrics.logicalQueries.Add(1)
	return est, degraded, nil
}
