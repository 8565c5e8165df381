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

// unavailable marks a query whose member failures were worth retrying
// until its attempt budget or its deadline ran out.
type unavailable struct{ error }

func (u *unavailable) Unwrap() error { return u.error }

// shardTiming is one shard's cover-fetch time for one query, as logged on
// the slow-query record.
type shardTiming struct {
	Shard int     `json:"shard"`
	Ms    float64 `json:"ms"`
}

// timings collects a query's cover-fetch times; the query path puts one in
// the context when slow queries are recorded, and member.Cover adds to it.
type timings struct {
	mu   sync.Mutex
	rows []shardTiming
}

type timingKey struct{}

func (t *timings) add(j int, d time.Duration) {
	t.mu.Lock()
	t.rows = append(t.rows, shardTiming{Shard: j, Ms: float64(d.Nanoseconds()) / 1e6})
	t.mu.Unlock()
}

// query runs the attempt loop over the core: a retryable member failure
// advances that shard's cursor (a follower serves the read-only cover
// endpoint) and restarts the query from scratch.
func (r *Router) query(ctx context.Context, q server.Query) (server.QueryResponse, error) {
	t0 := time.Now()
	tm := new(timings)
	if r.opts.SlowQuery > 0 {
		ctx = context.WithValue(ctx, timingKey{}, tm)
	}
	var res *core.QueryResult
	var err error
	for attempt := 0; attempt < r.opts.QueryAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
		}
		tm.rows = tm.rows[:0]
		res, err = r.core.Query(ctx, q.Opts)
		var se *shard.ShardError
		if !errors.As(err, &se) || !retryable(se.Err) {
			break
		}
		err = &unavailable{err}
		if ctx.Err() != nil {
			break
		}
		r.failover(se.Shard, se.Err)
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
			"shard_ms", slog.AnyValue(tm.rows),
			"elapsed_ms", resp.ElapsedMs,
		)
	}
	return resp, nil
}
