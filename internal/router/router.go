// Package router is the stateless front tier of a shard-per-process
// NETCLUS topology: each shard runs as its own topsserve process (with its
// own WAL, snapshots, and followers), and the router answers queries by
// doing across processes what shard.Sharded does in one: it reduces the
// members' representative rows with shard.ReduceOwnership, fetches every
// owning member's masked cover at once (POST /v1/shard/cover, one binary
// body each), and runs shard.Answer — the one gather both tiers call — over
// the decoded covers, so answers stay float-op-for-float-op identical to a
// single-process engine over the same dataset (the cross-process
// differential oracle enforces it). /v1/query and /v1/query/batch bodies
// decode and answers encode through the serving tier's own codec
// (server.DecodeQuery, server.NewQueryResponse), so both tiers accept and
// answer the same bytes. What lives here is everything a network adds: the
// shard map, timeouts, failover and retry.
//
// The router owns the shard map: per shard an ordered list of member URLs
// (primary first, then followers) with an active cursor. The cover endpoint
// is read-only, so when a member fails mid-query the router advances that
// shard's cursor to the next URL — a follower serves the retry without any
// promotion — and restarts the query from scratch.
// Updates require the shard's primary: site mutations route to the owning
// shard (the partitioner evaluated locally when it is graph-free, or via
// the members' /v1/shard/owner otherwise), trajectory mutations broadcast
// to every shard. POST /v1/topology re-points a shard at a promoted
// follower after a primary failure.
//
// Consistency: the router serializes its own queries against its own
// updates (queries share a read lock, updates take the write lock —
// the same discipline as shard.Sharded), but it cannot serialize against
// mutations sent directly to a member. Each member's cover is an immutable
// snapshot taken when it answers, so even then a query sees a consistent
// per-shard view; route all updates through the router to get the
// in-process engine's sequential semantics.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/shard"
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

	// mu serializes updates (write) against queries (read), covering the
	// topology slots, the dense-id mirror, and — via ownMu under it — the
	// ownership caches. The same discipline as shard.Sharded.
	mu    sync.RWMutex
	slots []*slot

	n        int
	partName string
	// part evaluates the partitioner locally when it is graph-free (hash);
	// nil means owner lookups go to the members (grid needs the graph).
	part   shard.Partitioner
	ladder shard.Ladder

	// sites is the global dense site-id mirror, so SiteIDs match the
	// single-process index's.
	sites    *shard.SiteMirror
	siteWarn string // non-empty when the mirror was seeded from concatenation

	ownMu      sync.Mutex
	own        map[int]*shard.Ownership
	ownerCache map[int64]int

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

// New validates the shard map against the members' own metadata (every
// member must agree on shard count, index, partitioner, and ladder
// parameters — a mixed topology would silently produce wrong answers),
// seeds the dense-id mirror, and returns a serving router.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("router: empty shard map")
	}
	opts = opts.withDefaults()
	r := &Router{
		opts:       opts,
		client:     opts.Client,
		n:          len(opts.Shards),
		own:        make(map[int]*shard.Ownership),
		ownerCache: make(map[int64]int),
		start:      time.Now(),
		log:        opts.Logger.With("component", "router"),
	}
	for j, urls := range opts.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no member URLs", j)
		}
		for _, u := range urls {
			p, err := url.Parse(u)
			if err != nil || p.Scheme == "" || p.Host == "" {
				return nil, fmt.Errorf("router: shard %d: %q is not an absolute URL", j, u)
			}
		}
		r.slots = append(r.slots, &slot{urls: append([]string(nil), urls...)})
	}

	metas := make([]shard.MemberMeta, r.n)
	for j := range r.slots {
		meta, err := r.fetchMeta(j)
		if err != nil {
			return nil, err
		}
		metas[j] = meta
	}
	m0 := metas[0]
	ladders := make([]shard.Ladder, r.n)
	for j, m := range metas {
		ladders[j] = m.Ladder
		if m.Shards != r.n {
			return nil, fmt.Errorf("router: shard %d reports a %d-shard topology, shard map has %d", j, m.Shards, r.n)
		}
		if m.Index != j {
			return nil, fmt.Errorf("router: shard map position %d points at a member that is shard %d", j, m.Index)
		}
		if m.Partitioner != m0.Partitioner {
			return nil, fmt.Errorf("router: shard %d partitioner %q differs from shard 0's %q", j, m.Partitioner, m0.Partitioner)
		}
	}
	if err := shard.CheckLadders(ladders); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	r.partName, r.ladder = m0.Partitioner, m0.Ladder
	if r.partName == shard.HashPartitioner {
		part, err := shard.NewPartitioner(r.partName, r.n, nil)
		if err != nil {
			return nil, err
		}
		r.part = part
	}
	r.seedMirror(metas)
	r.routes()
	return r, nil
}

// seedMirror builds the global dense site-id mirror. When every member
// still knows the full build-time site order and the live site sets have
// not drifted from it, that order is exact — SiteIDs match a
// single-process engine with the same history. Otherwise (members
// recovered from checkpoints, or mutations applied before this router
// booted) the mirror concatenates the live per-shard lists: the nodes are
// right, but dense ids may differ from a single-process history, which is
// recorded in siteWarn and surfaced on /statsz.
func (r *Router) seedMirror(metas []shard.MemberMeta) {
	liveCount := 0
	liveSet := make(map[roadnet.NodeID]bool)
	for _, m := range metas {
		liveCount += len(m.Sites)
		for _, v := range m.Sites {
			liveSet[v] = true
		}
	}
	exact := len(metas[0].InitialSites) > 0
	for _, m := range metas {
		if len(m.InitialSites) != len(metas[0].InitialSites) {
			exact = false
			break
		}
	}
	if exact && len(metas[0].InitialSites) == liveCount && len(liveSet) == liveCount {
		for _, v := range metas[0].InitialSites {
			if !liveSet[v] {
				exact = false
				break
			}
		}
	} else {
		exact = false
	}
	seed := metas[0].InitialSites
	if !exact {
		seed = nil
		for _, m := range metas {
			seed = append(seed, m.Sites...)
		}
		r.siteWarn = "dense site ids seeded from per-shard concatenation (members past their build-time site set); ids may differ from a single-process history"
		r.log.Warn("site-id mirror inexact", "detail", r.siteWarn)
	}
	r.sites = shard.NewSiteMirror(seed)
}

// activeURL returns shard j's current target.
func (r *Router) activeURL(j int) string {
	s := r.slots[j]
	return s.urls[s.active]
}

// failover advances shard j's cursor past a failed member. Caller may
// hold only the read lock during queries, so the cursor moves under the
// slot-independent write lock; a single-URL shard just retries the same
// target.
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
// URL list if new), after verifying the member there really serves shard
// j of this topology. The failover path after POST /v1/promote on a
// surviving follower.
func (r *Router) Repoint(j int, u string) error {
	if j < 0 || j >= r.n {
		return fmt.Errorf("router: shard %d outside [0, %d)", j, r.n)
	}
	p, err := url.Parse(u)
	if err != nil || p.Scheme == "" || p.Host == "" {
		return fmt.Errorf("router: %q is not an absolute URL", u)
	}
	var meta shard.MemberMeta
	if err := r.call(context.Background(), http.MethodGet, u+"/v1/shard/meta", nil, &meta); err != nil {
		return fmt.Errorf("router: probing %s: %w", u, err)
	}
	if meta.Shards != r.n || meta.Index != j {
		return fmt.Errorf("router: %s serves shard %d of %d, not shard %d of %d", u, meta.Index, meta.Shards, j, r.n)
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

// fetchMeta loads shard j's metadata, failing over through its URL list.
func (r *Router) fetchMeta(j int) (shard.MemberMeta, error) {
	s := r.slots[j]
	var lastErr error
	for range s.urls {
		var meta shard.MemberMeta
		err := r.call(context.Background(), http.MethodGet, r.activeURL(j)+"/v1/shard/meta", nil, &meta)
		if err == nil {
			return meta, nil
		}
		lastErr = err
		s.active = (s.active + 1) % len(s.urls)
	}
	return shard.MemberMeta{}, fmt.Errorf("router: no reachable member for shard %d: %w", j, lastErr)
}

// ownership derives (or returns the cached) cluster ownership of ladder
// instance p from every shard's /v1/shard/reps. Dropped whole on any site
// mutation.
func (r *Router) ownership(ctx context.Context, p int) (*shard.Ownership, error) {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	if o := r.own[p]; o != nil {
		return o, nil
	}
	rows := make([][]core.RepInfo, r.n)
	errs := make([]error, r.n)
	var wg sync.WaitGroup
	for j := range r.n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp struct {
				Reps []core.RepInfo `json:"reps"`
			}
			errs[j] = r.call(ctx, http.MethodGet, fmt.Sprintf("%s/v1/shard/reps?p=%d", r.activeURL(j), p), nil, &resp)
			rows[j] = resp.Reps
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, &memberError{shard: j, err: err}
		}
	}
	o := shard.ReduceOwnership(rows)
	r.own[p] = o
	return o, nil
}

// dropOwnership invalidates the ownership and owner caches after a site
// mutation (a site add/delete can move cluster representatives, and for
// grid topologies the mutation may even have created the node's first
// routing decision).
func (r *Router) dropOwnership() {
	r.ownMu.Lock()
	r.own = make(map[int]*shard.Ownership)
	r.ownMu.Unlock()
}

// ownerOf resolves which shard owns node v: locally when the partitioner
// is graph-free, otherwise via a (cached) member lookup.
func (r *Router) ownerOf(ctx context.Context, v int64) (int, error) {
	if r.part != nil {
		return r.part.Shard(roadnet.NodeID(v)), nil
	}
	r.ownMu.Lock()
	j, ok := r.ownerCache[v]
	r.ownMu.Unlock()
	if ok {
		return j, nil
	}
	var resp struct {
		Node  int64 `json:"node"`
		Shard int   `json:"shard"`
	}
	if err := r.call(ctx, http.MethodGet, fmt.Sprintf("%s/v1/shard/owner?node=%d", r.activeURL(0), v), nil, &resp); err != nil {
		return 0, &memberError{shard: 0, err: err}
	}
	if resp.Shard < 0 || resp.Shard >= r.n {
		return 0, fmt.Errorf("router: member reports shard %d for node %d, outside [0, %d)", resp.Shard, v, r.n)
	}
	r.ownMu.Lock()
	r.ownerCache[v] = resp.Shard
	r.ownMu.Unlock()
	return resp.Shard, nil
}

// memberError marks a failure attributable to one shard's current target;
// the query path fails that shard over and retries.
type memberError struct {
	shard int
	err   error
}

func (e *memberError) Error() string { return fmt.Sprintf("shard %d: %v", e.shard, e.err) }
func (e *memberError) Unwrap() error { return e.err }

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
		return nil, decodeEnvelope(resp.StatusCode, raw)
	}
	return raw, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

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
	out := make([]topologyShard, r.n)
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

// sortedInstances lists the cached ownership instances (statsz).
func (r *Router) sortedInstances() []int {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	out := make([]int, 0, len(r.own))
	for p := range r.own {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
