// Package router is the stateless front tier of a shard-per-process
// NETCLUS topology: each shard runs as its own topsserve process (with its
// own WAL, snapshots, and followers), and the router serves the one routing
// core, shard.Sharded, over HTTP conns to them. The core reduces the
// members' representative rows to cluster ownership, fetches every owning
// member's masked cover at once (POST /v1/shard/cover, one binary body
// each), answers through shard.Answer, and routes updates — the same code
// an in-process topology runs, so answers stay float-op-for-float-op
// identical to a single-process engine over the same dataset (the
// cross-process differential oracle enforces it). /v1/query,
// /v1/query/batch and /v1/update bodies decode, and answers encode, through
// the serving tier's own codec, so both tiers accept and answer the same
// bytes. What lives here is everything a network adds: the HTTP handlers,
// the shard map, timeouts, failover and retry, /statsz, /metrics and the
// slow-query record.
//
// The router owns the shard map: per shard an ordered list of member URLs
// (primary first, then followers) with an active cursor. The cover endpoint
// is read-only, so when a member fails mid-query the router advances that
// shard's cursor to the next URL — a follower serves the retry without any
// promotion — and restarts the query from scratch. Updates require the
// shard's primary and are not retried. POST /v1/topology re-points a shard
// at a promoted follower after a primary failure.
//
// Consistency: the core serializes the router's own queries against its
// own updates, but it cannot serialize against mutations sent directly to a
// member. Each member's cover is an immutable snapshot taken when it
// answers, so even then a query sees a consistent per-shard view; route all
// updates through the router to get the in-process engine's sequential
// semantics.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/shard"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// Options configures a Router.
type Options struct {
	// Shards is the shard map: per shard, its member URLs in preference
	// order (primary first, then followers). Every shard needs at least
	// one URL.
	Shards [][]string
	// Client issues member requests. Nil selects a default client; the
	// per-call timeout comes from ShardTimeout either way.
	Client *http.Client
	// ShardTimeout bounds each member call (default 10s).
	ShardTimeout time.Duration
	// QueryAttempts is how many times a query restarts after a member
	// failure (advancing the failed shard's cursor between attempts)
	// before giving up. Zero selects 3.
	QueryAttempts int
	// Logger receives topology events (boot, failover, re-point) and
	// slow-query records as structured logs. Nil discards them.
	Logger *slog.Logger
	// SlowQuery, when > 0, emits one structured record for every query
	// whose end-to-end handling (attempts included) exceeds it: trace id,
	// k, τ, per-shard cover-fetch time. Zero disables.
	SlowQuery time.Duration
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 10 * time.Second
	}
	if o.QueryAttempts <= 0 {
		o.QueryAttempts = 3
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// slot is one shard's routing state: its candidate URLs and the cursor.
type slot struct {
	urls    []string
	active  int
	lastErr string
}

// Router fronts N shard-member processes. Create with New, mount as an
// http.Handler.
type Router struct {
	opts   Options
	client *http.Client
	core   *shard.Sharded

	// mu guards the shard map: every slot's URL list and cursor.
	mu    sync.RWMutex
	slots []*slot

	queries   atomic.Uint64
	batches   atomic.Uint64
	updates   atomic.Uint64
	retries   atomic.Uint64
	failovers atomic.Uint64
	errs      atomic.Uint64

	start time.Time
	mux   *http.ServeMux
	log   *slog.Logger
}

// New validates the shard map against the members' own metadata (the
// core's shard.New: every member must agree on shard count, index,
// partition rule, and ladder — a mixed topology would silently produce wrong
// answers), seeds the dense-id mirror, and returns a serving router.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("router: empty shard map")
	}
	opts = opts.withDefaults()
	r := &Router{
		opts:   opts,
		client: opts.Client,
		start:  time.Now(),
		log:    opts.Logger.With("component", "router"),
	}
	conns := make([]shard.Conn, len(opts.Shards))
	for j, urls := range opts.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no member URLs", j)
		}
		for _, u := range urls {
			if !absolute(u) {
				return nil, fmt.Errorf("router: shard %d: %q is not an absolute URL", j, u)
			}
		}
		r.slots = append(r.slots, &slot{urls: append([]string(nil), urls...)})
		conns[j] = member{r: r, j: j}
	}
	var err error
	if r.core, err = shard.New(context.Background(), conns); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	if warn := r.core.Status().SiteIDWarning; warn != "" {
		r.log.Warn("site-id mirror inexact", "detail", warn)
	}
	r.routes()
	return r, nil
}

func absolute(u string) bool {
	p, err := url.Parse(u)
	return err == nil && p.Scheme != "" && p.Host != ""
}

// activeURL returns shard j's current target.
func (r *Router) activeURL(j int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.slots[j]
	return s.urls[s.active]
}

// failover advances shard j's cursor past a failed member; a single-URL
// shard just retries the same target.
func (r *Router) failover(j int, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slots[j]
	s.lastErr = cause.Error()
	if len(s.urls) == 1 {
		return
	}
	was := s.urls[s.active]
	s.active = (s.active + 1) % len(s.urls)
	r.failovers.Add(1)
	r.log.Warn("shard failover", "shard", j, "failed_url", was, "error", cause.Error(), "next_url", s.urls[s.active])
}

// Repoint makes u shard j's active target (appending it to the shard's
// URL list if new), after the core verifies the member there serves shard
// j of this very topology — shard count, partition rule and ladder included.
// The failover path after POST /v1/promote on a surviving follower.
func (r *Router) Repoint(j int, u string) error {
	if j < 0 || j >= len(r.slots) {
		return fmt.Errorf("router: shard %d outside [0, %d)", j, len(r.slots))
	}
	if !absolute(u) {
		return fmt.Errorf("router: %q is not an absolute URL", u)
	}
	var meta shard.MemberMeta
	if err := r.call(context.Background(), http.MethodGet, u+"/v1/shard/meta", nil, &meta); err != nil {
		return fmt.Errorf("router: probing %s: %w", u, err)
	}
	if err := r.core.CheckMember(j, meta); err != nil {
		return fmt.Errorf("router: %s: %w", u, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slots[j]
	found := -1
	for i, cand := range s.urls {
		if cand == u {
			found = i
			break
		}
	}
	if found < 0 {
		s.urls = append(s.urls, u)
		found = len(s.urls) - 1
	}
	s.active = found
	s.lastErr = ""
	r.log.Info("shard re-pointed", "shard", j, "primary", u)
	return nil
}

// member is shard j's shard.Conn: every call goes to the shard's active
// URL, over the endpoints a topsserve member serves.
type member struct {
	r *Router
	j int
}

// Meta probes the shard's URLs from the cursor on, advancing past each
// that fails, so the router boots over whichever member of each shard
// answers.
func (m member) Meta(ctx context.Context) (shard.MemberMeta, error) {
	var lastErr error
	for range m.r.slots[m.j].urls {
		var meta shard.MemberMeta
		err := m.r.call(ctx, http.MethodGet, m.r.activeURL(m.j)+"/v1/shard/meta", nil, &meta)
		if err == nil {
			return meta, nil
		}
		lastErr = err
		m.r.mu.Lock()
		s := m.r.slots[m.j]
		s.active = (s.active + 1) % len(s.urls)
		m.r.mu.Unlock()
	}
	return shard.MemberMeta{}, fmt.Errorf("no reachable member: %w", lastErr)
}

func (m member) Reps(ctx context.Context, p int) ([]core.RepInfo, error) {
	var resp struct {
		Reps []core.RepInfo `json:"reps"`
	}
	err := m.r.call(ctx, http.MethodGet, fmt.Sprintf("%s/v1/shard/reps?p=%d", m.r.activeURL(m.j), p), nil, &resp)
	return resp.Reps, err
}

// Cover fetches and decodes the member's masked cover, recording the
// fetch's time for the slow-query record.
func (m member) Cover(ctx context.Context, req *shard.CoverRequest) (*tops.CoverSets, []core.ClusterID, error) {
	t := time.Now()
	body, err := m.r.do(ctx, http.MethodPost, m.r.activeURL(m.j)+"/v1/shard/cover", req)
	if tm, ok := ctx.Value(timingKey{}).(*timings); ok {
		tm.add(m.j, time.Since(t))
	}
	if err != nil {
		return nil, nil, err
	}
	return shard.ReadCover(body)
}

func (m member) Update(ctx context.Context, u wal.Update) (wal.UpdateAck, error) {
	var ack wal.UpdateAck
	err := m.r.call(ctx, http.MethodPost, m.r.activeURL(m.j)+"/v1/update", u, &ack)
	return ack, err
}

// httpError carries a member's error envelope (status + code) upstream.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("member answered %d (%s): %s", e.status, e.code, e.msg)
}

// call issues one member request with do and decodes the JSON answer
// into out (when out is non-nil).
func (r *Router) call(ctx context.Context, method, u string, in, out any) error {
	raw, err := r.do(ctx, method, u, in)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// do issues one member request with the per-call timeout, JSON in (when in
// is non-nil), and returns the response body. Non-2xx answers decode the
// serving tier's error envelope into an httpError.
func (r *Router) do(ctx context.Context, method, u string, in any) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, r.opts.ShardTimeout)
	defer cancel()
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Forward the request's trace id so the member's logs and error
	// envelopes join with the router's.
	if tr := obs.TraceID(ctx); tr != "" {
		req.Header.Set(obs.TraceHeader, tr)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		var env errorResponse
		_ = json.Unmarshal(raw, &env)
		if env.Error == "" {
			env.Error = string(raw)
		}
		return nil, &httpError{status: resp.StatusCode, code: env.Code, msg: env.Error}
	}
	return raw, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.slots) }

// topologyShard is one row of GET /v1/topology.
type topologyShard struct {
	Shard     int      `json:"shard"`
	URLs      []string `json:"urls"`
	Active    int      `json:"active"`
	ActiveURL string   `json:"active_url"`
	LastError string   `json:"last_error,omitempty"`
}

// topology snapshots the shard map.
func (r *Router) topology() []topologyShard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]topologyShard, len(r.slots))
	for j, s := range r.slots {
		out[j] = topologyShard{
			Shard:     j,
			URLs:      append([]string(nil), s.urls...),
			Active:    s.active,
			ActiveURL: s.urls[s.active],
			LastError: s.lastErr,
		}
	}
	return out
}
