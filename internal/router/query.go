package router

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/server"
	"netclus/internal/shard"
)

// retryable reports whether a member failure is worth failing over and
// restarting the query: transport errors, undecodable bodies, 5xx and
// timeouts are; other 4xx answers are the member telling us the request
// itself is bad — relayed, not retried.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500 ||
			he.status == http.StatusRequestTimeout ||
			he.status == http.StatusTooManyRequests
	}
	return true
}

// shardTiming is one shard's cover-fetch time for one query, as logged on
// the slow-query record.
type shardTiming struct {
	Shard int     `json:"shard"`
	Ms    float64 `json:"ms"`
}

// runQuery executes one attempt of a query against the topology: derive
// the ladder instance and cluster ownership, fetch every owning shard's
// masked cover at once, and answer through shard.Answer — the gather
// shard.Sharded runs in process, over covers byte-equal to the members'.
// Holds the read lock so router-routed updates serialize against it.
func (r *Router) runQuery(ctx context.Context, q server.Query) (*core.QueryResult, []shardTiming, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	p := core.InstanceForTau(r.ladder.TauMin, r.ladder.Gamma, r.ladder.Rungs, q.Opts.Pref.Tau)
	own, err := r.ownership(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	covers, timing, err := r.fetchCovers(ctx, p, q.Pref, own)
	if err != nil {
		return nil, nil, err
	}
	res, err := shard.Answer(ctx, p, own, covers, r.sites, q.Opts, true)
	return res, timing, err
}

// fetchCovers asks every shard owning clusters of instance p for its masked
// cover, all shards at once — the scatter, recorded as one
// netclus_router_scatter_seconds observation.
func (r *Router) fetchCovers(ctx context.Context, p int, pref shard.WirePref, own *shard.Ownership) ([]shard.Cover, []shardTiming, error) {
	t0 := time.Now()
	var covers []shard.Cover
	for j := range r.n {
		if len(own.Masks[j]) > 0 {
			covers = append(covers, shard.Cover{Shard: j})
		}
	}
	timing := make([]shardTiming, len(covers))
	errs := make([]error, len(covers))
	var wg sync.WaitGroup
	for i := range covers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &covers[i]
			t := time.Now()
			body, err := r.do(ctx, http.MethodPost, r.activeURL(c.Shard)+"/v1/shard/cover", &shard.CoverRequest{P: p, Pref: pref, Mask: own.Masks[c.Shard]})
			if err == nil {
				c.CS, c.Reps, err = shard.ReadCover(body)
			}
			timing[i] = shardTiming{Shard: c.Shard, Ms: float64(time.Since(t).Nanoseconds()) / 1e6}
			errs[i] = err
		}()
	}
	wg.Wait()
	obs.RouterScatter.RecordSince(t0)
	for i, err := range errs {
		if err != nil {
			return nil, nil, r.classify(covers[i].Shard, err)
		}
	}
	return covers, timing, nil
}

// classify wraps a member failure for the retry loop when failing over
// could help, and passes terminal (client-resolvable) answers through.
func (r *Router) classify(j int, err error) error {
	if retryable(err) {
		return &memberError{shard: j, err: err}
	}
	return err
}

// query runs the attempt loop: a retryable member failure advances that
// shard's cursor (a follower serves the read-only cover endpoint) and
// restarts the query from scratch.
func (r *Router) query(ctx context.Context, q server.Query) (server.QueryResponse, error) {
	t0 := time.Now()
	var res *core.QueryResult
	var timing []shardTiming
	var err error
	for attempt := 0; attempt < r.opts.QueryAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
		}
		res, timing, err = r.runQuery(ctx, q)
		var me *memberError
		if err != nil && errors.As(err, &me) && ctx.Err() == nil {
			r.failover(me.shard, me.err)
			continue
		}
		break
	}
	if err != nil {
		return server.QueryResponse{}, err
	}
	elapsed := time.Since(t0)
	resp := server.NewQueryResponse(res, elapsed)
	res.Release()
	if r.opts.SlowQuery > 0 && elapsed >= r.opts.SlowQuery {
		r.log.Warn("slow query",
			"trace_id", obs.TraceID(ctx),
			"k", q.Opts.K,
			"pref", q.Pref.Name,
			"tau_km", q.Pref.Tau,
			"shard_ms", slog.AnyValue(timing),
			"elapsed_ms", resp.ElapsedMs,
		)
	}
	return resp, nil
}
