package server

import (
	"context"
	"errors"
	"fmt"

	"neurocard/internal/query"
)

// errShardMissing marks an estimate that needed a shard model the registry
// no longer holds (unloaded out from under its logical model). 503: the
// query is fine, the fleet is not.
var errShardMissing = errors.New("server: shard model not loaded")

// composeLogical answers the queries of a request addressed to a logical
// model, writing query i's outcome to out[i]. The manifest's planner splits
// each query into per-shard sub-queries; the sub-queries are grouped per
// shard, in first-seen shard order, and each group runs through that
// shard's fault ladder — its breaker, model, sanity guard and fallback —
// exactly like a direct request to the shard. A sub-query keeps its query's
// request index, so its randomness is (seed, original index) whatever the
// grouping. Each query's estimate is its plan factor times its
// sub-estimates, multiplied in group order, and the product passes the
// non-finite guard once more.
//
// Fault isolation is per shard group: an open breaker or an unloaded shard
// fails (or degrades) only the queries that route through it. A query fails
// with the first error among its sub-queries (a single query runs no shard
// after that), and it is degraded when any sub-estimate came from a
// fallback. Shard entries are resolved per request, so each shard hot-swaps
// independently underneath the logical name.
func (s *Server) composeLogical(ctx context.Context, lg *Logical, req *estimateRequest, out []outcome) {
	type group struct {
		qs  []query.Query
		idx []int
	}
	groups := make(map[string]*group)
	var order []string
	for i, q := range req.queries {
		pl, err := lg.Planner.Plan(q)
		if err != nil {
			out[i].err = err
			continue
		}
		out[i].est = pl.Factor
		for _, sub := range pl.Subs {
			g := groups[sub.Shard]
			if g == nil {
				g = &group{}
				groups[sub.Shard] = g
				order = append(order, sub.Shard)
			}
			g.qs = append(g.qs, sub.Query)
			g.idx = append(g.idx, i)
		}
	}
	for _, shardName := range order {
		if req.single && out[0].err != nil {
			break // a single query stops at its first failing shard
		}
		g := groups[shardName]
		s.metrics.routeToShard(lg.Name, shardName, int64(len(g.qs)))
		var res []outcome
		if entry, err := s.reg.Get(shardName); err == nil {
			res = make([]outcome, len(g.qs))
			s.ladder(ctx, entry, shardName, req, g.qs, g.idx, res)
		}
		for j, qi := range g.idx {
			o := &out[qi]
			serr := errShardMissing
			if res != nil {
				serr = res[j].err
				o.degraded = o.degraded || res[j].degraded
			}
			if errors.Is(serr, errNotLoaded) {
				// Unloaded between the lookup and the coalescer's flush.
				serr = errShardMissing
			}
			switch {
			case o.err != nil:
			case serr != nil:
				o.err = fmt.Errorf("shard %q: %w", shardName, serr)
			default:
				o.est *= res[j].est
			}
		}
	}
	for i := range out {
		o := &out[i]
		if o.err == nil && !finitePositive(o.est) {
			o.err = fmt.Errorf("%w %g (combined)", errNonFinite, o.est)
			s.metrics.nonfiniteTotal.Add(1)
		}
		if o.err == nil {
			s.metrics.logicalQueries.Add(1)
		}
	}
}
