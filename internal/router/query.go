package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/shard"
)

// wireQuery mirrors the serving tier's /v1/query body. The router accepts
// the same shape so clients are oblivious to which tier they talk to;
// sketch-mode (fm) queries are rejected — the router speaks only the
// exact distributed-greedy protocol.
type wireQuery struct {
	K         int     `json:"k"`
	Tau       float64 `json:"tau"`
	Pref      string  `json:"pref"`
	Lambda    float64 `json:"lambda,omitempty"`
	FM        bool    `json:"fm,omitempty"`
	F         int     `json:"f,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	TimeoutMs int64   `json:"timeout_ms,omitempty"`
}

// validate applies the serving tier's structural checks plus the router's
// own restrictions, and lowers the preference once — through the function
// the members re-derive it with — to fail fast.
func (q wireQuery) validate(maxK int) (shard.WirePref, error) {
	var zero shard.WirePref
	if q.K <= 0 {
		return zero, fmt.Errorf("k = %d must be positive", q.K)
	}
	if q.K > maxK {
		return zero, fmt.Errorf("k = %d exceeds limit %d", q.K, maxK)
	}
	if q.FM || q.F != 0 || q.Seed != 0 {
		return zero, fmt.Errorf("fm queries are not supported by the router tier (exact greedy only)")
	}
	if q.TimeoutMs < 0 {
		return zero, fmt.Errorf("timeout_ms = %d must be non-negative", q.TimeoutMs)
	}
	wp := shard.WirePref{Name: q.Pref, Tau: q.Tau, Lambda: q.Lambda}
	pref, err := wp.Preference()
	if err != nil {
		return zero, err
	}
	if err := pref.Validate(); err != nil {
		return zero, err
	}
	return wp, nil
}

// retryable reports whether a member failure is worth failing over and
// restarting the query: transport errors, 5xx, timeouts, and session
// conflicts (409: the member restarted, or a failover moved the session's
// shard to a process that never saw the start) are; other 4xx answers are
// the member telling us the request itself is bad — relayed, not retried.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500 ||
			he.status == http.StatusRequestTimeout ||
			he.status == http.StatusConflict ||
			he.status == http.StatusTooManyRequests
	}
	return true
}

// memberHandle is the coordinator's handle on one member's session: the
// round protocol over HTTP. The URL is resolved when the handle is made,
// under the query's read lock, because End's request outlives it and must
// not race a failover's cursor write. nanos accumulates the member-call
// time (written only by this shard's round goroutine, rounds are
// sequential — no atomics needed; read after the run).
type memberHandle struct {
	r     *Router
	url   string
	start *shard.StartRequest // nil once the session is open
	qid   string
	nanos int64
}

func (h *memberHandle) Step(ctx context.Context, winnerGI int32, deltas []shard.UtilDelta) (reply shard.RoundReply, err error) {
	t0 := time.Now()
	defer func() { h.nanos += int64(time.Since(t0)) }()
	if req := h.start; req != nil {
		h.start = nil
		err = h.r.call(ctx, http.MethodPost, h.url+"/v1/shard/query/start", req, &reply)
		return reply, err
	}
	// The winner shard recognizes its own candidate by global index and
	// marks it selected; global indices partition across shards, so nobody
	// else matches.
	err = h.r.call(ctx, http.MethodPost, h.url+"/v1/shard/query/step", &shard.StepRequest{QID: h.qid, WinnerGI: winnerGI, Deltas: deltas}, &reply)
	return reply, err
}

// End releases the member's session best-effort: sessions also expire by
// TTL, so a lost End costs memory only briefly.
func (h *memberHandle) End() {
	if h.start != nil {
		return // never opened
	}
	go func() {
		_ = h.r.call(context.Background(), http.MethodPost, h.url+"/v1/shard/query/end", &shard.EndRequest{QID: h.qid}, nil)
	}()
}

// runQuery executes one query against the topology: derive the ladder
// instance and cluster ownership, then let the coordinator (shard.Gather,
// the code the in-process engine runs) drive one session per shard that
// owns clusters, each round's member calls fanned out across goroutines.
// Holds the read lock so router-routed updates serialize against it.
func (r *Router) runQuery(ctx context.Context, q wireQuery, pref shard.WirePref) (*queryResult, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	p := core.InstanceForTau(r.ladder.TauMin, r.ladder.Gamma, r.ladder.Rungs, q.Tau)
	own, err := r.ownership(ctx, p)
	if err != nil {
		return nil, err
	}
	res := &queryResult{InstanceUsed: p, NumRepresentatives: len(own.Winners), Sites: []int64{}, SiteIDs: []int32{}}
	if len(own.Winners) == 0 {
		return res, nil
	}

	qid := fmt.Sprintf("q%d-%d", os.Getpid(), r.qidSeq.Add(1))
	var hs []shard.Handle
	for j := range r.n {
		if len(own.Masks[j]) > 0 {
			hs = append(hs, shard.Handle{Shard: j, Session: &memberHandle{
				r: r, url: r.activeURL(j), qid: qid,
				start: &shard.StartRequest{QID: qid, P: p, Pref: pref, Mask: own.Masks[j], MaskGlobal: own.MasksGI[j]},
			}})
		}
	}
	fan := func(n int, call func(i int)) {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() { defer wg.Done(); call(i) }()
		}
		wg.Wait()
		obs.RouterScatter.RecordSince(t0)
		res.rounds++
	}
	var g shard.Gather
	sel, err := g.Run(ctx, min(q.K, len(own.Winners)), hs, fan)
	var se *shard.StepError
	if errors.As(err, &se) {
		return nil, r.classify(se.Shard, se.Err)
	}
	if err != nil {
		return nil, err
	}
	for _, h := range hs {
		res.shardMs = append(res.shardMs, shardTiming{Shard: h.Shard, Ms: float64(h.Session.(*memberHandle).nanos) / 1e6})
	}
	res.EstimatedUtility, res.EstimatedCovered = sel.Utility, sel.Covered
	for _, gi := range sel.Selected {
		node := own.Winners[gi].Node
		res.Sites = append(res.Sites, int64(node))
		res.SiteIDs = append(res.SiteIDs, int32(r.sites.ID(node)))
	}
	return res, nil
}

// classify wraps a member failure for the retry loop when failing over
// could help, and passes terminal (client-resolvable) answers through.
func (r *Router) classify(j int, err error) error {
	if retryable(err) {
		return &memberError{shard: j, err: err}
	}
	return err
}

// queryResult accumulates one answer in the serving tier's wire shape.
// rounds and shardMs stay off the wire (unexported): they feed only the
// slow-query log record.
type queryResult struct {
	Sites              []int64 `json:"sites"`
	SiteIDs            []int32 `json:"site_ids"`
	EstimatedUtility   float64 `json:"estimated_utility"`
	EstimatedCovered   int     `json:"estimated_covered"`
	InstanceUsed       int     `json:"instance_used"`
	NumRepresentatives int     `json:"num_representatives"`
	ElapsedMs          float64 `json:"elapsed_ms"`

	rounds  int
	shardMs []shardTiming
}

// shardTiming is one shard's accumulated member-call time for one query,
// as logged on the slow-query record.
type shardTiming struct {
	Shard int     `json:"shard"`
	Ms    float64 `json:"ms"`
}

// query runs the attempt loop: a retryable member failure advances that
// shard's cursor (a follower can serve the read-only round protocol) and
// restarts the query from scratch with a fresh session id.
func (r *Router) query(ctx context.Context, q wireQuery, pref shard.WirePref) (*queryResult, error) {
	t0 := time.Now()
	var res *queryResult
	var err error
	for attempt := 0; attempt < r.opts.QueryAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
		}
		res, err = r.runQuery(ctx, q, pref)
		var me *memberError
		if err != nil && errors.As(err, &me) && ctx.Err() == nil {
			r.failover(me.shard, me.err)
			continue
		}
		break
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	res.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	if r.opts.SlowQuery > 0 && elapsed >= r.opts.SlowQuery {
		r.log.Warn("slow query",
			"trace_id", obs.TraceID(ctx),
			"k", q.K,
			"pref", q.Pref,
			"tau_km", q.Tau,
			"rounds", res.rounds,
			"shard_ms", slog.AnyValue(res.shardMs),
			"elapsed_ms", res.ElapsedMs,
		)
	}
	return res, nil
}
