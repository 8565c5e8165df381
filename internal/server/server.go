// Package server is the network serving layer over the NETCLUS engine: an
// HTTP JSON API with per-request deadlines, graceful drain, and an atomic
// metrics block.
//
// Endpoints:
//
//	POST /v1/query        one TOPS query (a direct Engine.Query call)
//	POST /v1/query/batch  many queries in one engine call
//	POST /v1/update       §6 dynamic updates (site/trajectory add/delete)
//	POST /v1/checkpoint   stream the recovery bundle (dataset + snapshot)
//	GET  /v1/log          stream WAL records from ?from=<lsn>; ?wait=<dur>
//	                      long-polls until new records arrive
//	GET  /v1/replication  replication status resource (role, epoch, LSNs,
//	                      per-follower acks, quorum config)
//	POST /v1/promote      promote a read-only follower to primary
//	GET  /healthz         liveness; 503 once draining or stale
//	GET  /statsz          engine + server counters
//
// Every error answers the uniform envelope {"error": …, "code": …} where
// code is a stable machine-readable class (see API.md); all 503 responses
// carry a Retry-After header.
//
// The layering mirrors the rest of the module: core stays synchronous,
// engine owns the reader/writer protocol, and this package owns transport
// concerns only — decoding, limits, deadlines, drain. In particular there is
// no admission window: concurrent look-alike queries share one cover fill
// through the cover cache's singleflight in internal/core, nowhere else.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/ingest"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/wal"
)

// Engine is the serving surface the HTTP layer drives: queries, batches,
// §6 updates, live checkpoints, and counters. The single-index engine
// (engine.Engine) satisfies it, and so does a shard member (shard.Member)
// embedding one: a process serves one index.
type Engine interface {
	Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error)
	QueryBatch(ctx context.Context, qs []core.QueryOptions) []engine.BatchItem
	Stats() engine.Stats
	// Checkpoint streams the recovery bundle: the mutated dataset state
	// plus the LSN-stamped snapshot (see wal.WriteCheckpoint). A follower
	// bootstraps from it when the primary's log no longer reaches LSN 1.
	Checkpoint(w io.Writer) (int64, error)
	Graph() *roadnet.Graph
	// Apply is the one write path: /v1/update and each /v1/ingest window
	// lower to a wal.Mutation, and the engine applies it and — WAL-served —
	// logs it under one lock, reporting the LSN that record was assigned.
	Apply(m wal.Mutation) (wal.Applied, error)
}

// Options configures a Server.
type Options struct {
	// Ignored: kept only so cmd/topsload/ladder.go (frozen by BENCHMARK.json) compiles.
	BatchWindow time.Duration
	// DefaultTimeout is the per-request deadline applied when the client
	// does not send timeout_ms. Zero selects the default (10s).
	DefaultTimeout time.Duration
	// Limits bound request decoding; zero fields take their defaults.
	Limits Limits
	// Log, when non-nil, is the primary's write-ahead log: GET /v1/log
	// streams its records to followers and /statsz reports its counters.
	Log *wal.Log
	// ReadOnly starts the server in the follower role: /v1/update answers
	// 403 read_only, because replicas apply mutations only from the
	// primary's log stream. A successful POST /v1/promote clears it.
	ReadOnly bool
	// Replication, when non-nil, reports the follower's tailing status;
	// it is embedded in /healthz, /statsz, and /v1/replication.
	Replication func() ReplicationStatus
	// Quorum, when > 0 on a log-serving primary, makes replication
	// semi-synchronous: a mutation's HTTP ack additionally waits until
	// Quorum followers have durably acknowledged its LSN (acks piggyback
	// on /v1/log tail requests as id=/acked= params). A mutation that
	// cannot gather the quorum within QuorumTimeout has still applied
	// locally but answers 503 quorum_timeout.
	Quorum int
	// QuorumTimeout bounds the quorum wait (default 5s).
	QuorumTimeout time.Duration
	// MaxLogWait caps the ?wait= long-poll park of GET /v1/log
	// (default 60s).
	MaxLogWait time.Duration
	// Promote, when non-nil, enables POST /v1/promote on a read-only
	// server. The callback must stop tailing the old primary, replay any
	// local log tail, attach the local log, and open a new epoch,
	// returning it; the server then leaves read-only mode.
	Promote func(ctx context.Context) (uint64, error)
	// Retarget, when non-nil, enables POST /v1/follow on a read-only
	// server: re-point this follower's tail loop at a new primary URL
	// without a restart (typically Follower.Retarget). The failover path
	// after a promotion: surviving followers re-point at the promoted
	// node instead of being rebuilt.
	Retarget func(primary string) error
	// Member, when non-nil, serves the per-shard member surface (meta,
	// representatives, masked covers) under /v1/shard/ — this process
	// is one shard of a router-fronted topology (see internal/router).
	Member MemberEngine
	// Ingest, when non-nil, enables POST /v1/ingest: raw GPS traces are
	// decoded from NDJSON, map-matched onto the engine's graph across a
	// worker pool, and applied as AddTrajectories mutations — WAL-logged,
	// quorum-ackable, and replicated like hand-posted updates. See
	// internal/ingest for the pipeline and wire format.
	Ingest *ingest.Options
	// Logger receives the server's structured records (slow queries, shard
	// cover fetches). Nil discards them.
	Logger *slog.Logger
	// SlowQuery, when > 0, emits one structured log record for every
	// /v1/query whose end-to-end handling exceeds it: trace id, k, ψ
	// fingerprint, τ, cache hit/miss, elapsed. Zero disables.
	SlowQuery time.Duration
}

func (o Options) withDefaults() Options {
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Second
	}
	if o.QuorumTimeout <= 0 {
		o.QuorumTimeout = 5 * time.Second
	}
	if o.MaxLogWait <= 0 {
		o.MaxLogWait = 60 * time.Second
	}
	o.Limits = o.Limits.withDefaults()
	return o
}

// routeMetrics is one endpoint's atomic counter block.
type routeMetrics struct {
	requests  atomic.Uint64
	errors4xx atomic.Uint64
	errors5xx atomic.Uint64
	totalNs   atomic.Int64
	maxNs     atomic.Int64
}

func (m *routeMetrics) observe(status int, d time.Duration) {
	m.requests.Add(1)
	switch {
	case status >= 500:
		m.errors5xx.Add(1)
	case status >= 400:
		m.errors4xx.Add(1)
	}
	ns := d.Nanoseconds()
	m.totalNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// routeStats is the JSON form of a routeMetrics block.
type routeStats struct {
	Requests  uint64  `json:"requests"`
	Errors4xx uint64  `json:"errors_4xx"`
	Errors5xx uint64  `json:"errors_5xx"`
	TotalMs   float64 `json:"total_ms"`
	MaxMs     float64 `json:"max_ms"`
}

func (m *routeMetrics) stats() routeStats {
	return routeStats{
		Requests:  m.requests.Load(),
		Errors4xx: m.errors4xx.Load(),
		Errors5xx: m.errors5xx.Load(),
		TotalMs:   float64(m.totalNs.Load()) / 1e6,
		MaxMs:     float64(m.maxNs.Load()) / 1e6,
	}
}

// Server serves one Engine over HTTP. Create it with New and mount it as an
// http.Handler.
type Server struct {
	eng  Engine
	opts Options
	mux  *http.ServeMux
	log  *slog.Logger

	start    time.Time
	draining atomic.Bool
	// drainCh is closed when draining flips on, waking parked long-poll
	// waiters and quorum waits so shutdown is not held up by them.
	drainMu sync.Mutex
	drainCh chan struct{}

	// readOnly is the live role (seeded from Options.ReadOnly, cleared by
	// a successful promotion); fencedBy latches the highest epoch any peer
	// presented on the replication surface (see noteFencing); promoteMu
	// serializes /v1/promote.
	readOnly  atomic.Bool
	fencedBy  atomic.Uint64
	promoteMu sync.Mutex
	acks      *ackTracker

	// ing is the ingestion pipeline behind POST /v1/ingest (nil when
	// Options.Ingest is nil).
	ing *ingest.Ingestor

	// routes lists every mounted route's metrics block once (track), in
	// mount order; /statsz and /metrics report exactly these.
	routes []route

	snapshotBytes atomic.Int64
	logRecords    atomic.Uint64
}

// New wraps eng in a serving layer. The caller keeps ownership of the
// engine (e.g. for a final snapshot after drain).
func New(eng Engine, opts Options) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	opts = opts.withDefaults()
	s := &Server{eng: eng, opts: opts, start: time.Now(), drainCh: make(chan struct{}), acks: newAckTracker()}
	s.log = opts.Logger
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.log = s.log.With("component", "server")
	s.readOnly.Store(opts.ReadOnly)
	mux := http.NewServeMux()
	handle := func(path, method string, h http.HandlerFunc) {
		mux.HandleFunc(path, s.instrument(s.track(path), method, h))
	}
	handle("/v1/query", http.MethodPost, s.handleQuery)
	handle("/v1/query/batch", http.MethodPost, s.handleBatch)
	handle("/v1/update", http.MethodPost, s.handleUpdate)
	if opts.Ingest != nil {
		s.ing = ingest.New(eng.Graph(), *opts.Ingest)
		// Streams get their own (much larger) body cap: the pipeline
		// consumes the NDJSON incrementally, never buffering it whole.
		mux.HandleFunc("/v1/ingest", s.instrumentBody(s.track("/v1/ingest"), http.MethodPost, opts.Limits.MaxIngestBytes, s.handleIngest))
	}
	handle("/v1/checkpoint", http.MethodPost, s.handleCheckpoint)
	if opts.Log != nil {
		handle("/v1/log", http.MethodGet, s.handleLog)
	}
	handle("/v1/replication", http.MethodGet, s.handleReplication)
	if opts.Promote != nil {
		handle("/v1/promote", http.MethodPost, s.handlePromote)
	}
	if opts.Retarget != nil {
		handle("/v1/follow", http.MethodPost, s.handleFollow)
	}
	if opts.Member != nil {
		// The member surface shares one block.
		m := s.track("/v1/shard/")
		mux.HandleFunc("/v1/shard/meta", s.instrument(m, http.MethodGet, s.handleShardMeta))
		mux.HandleFunc("/v1/shard/reps", s.instrument(m, http.MethodGet, s.handleShardReps))
		mux.HandleFunc("/v1/shard/cover", s.instrument(m, http.MethodPost, s.handleShardCover))
	}
	handle("/healthz", http.MethodGet, s.handleHealth)
	handle("/statsz", http.MethodGet, s.handleStats)
	handle("/metrics", http.MethodGet, s.handleMetrics)
	s.mux = mux
	return s, nil
}

// route is one metrics block and the route name /statsz and /metrics
// report it under.
type route struct {
	name string
	m    *routeMetrics
}

// track adds a metrics block reported under name.
func (s *Server) track(name string) *routeMetrics {
	m := new(routeMetrics)
	s.routes = append(s.routes, route{name: name, m: m})
	return m
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips the health signal: load balancers polling /healthz see
// 503 and stop routing new traffic while in-flight requests finish. It
// also wakes parked /v1/log long-polls and quorum waits, so shutdown does
// not have to ride out their timeouts.
func (s *Server) SetDraining(v bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	was := s.draining.Load()
	if v && !was {
		close(s.drainCh)
	} else if !v && was {
		s.drainCh = make(chan struct{})
	}
	s.draining.Store(v)
}

// drainSignal returns the channel closed when draining begins.
func (s *Server) drainSignal() <-chan struct{} {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.drainCh
}

// Close does nothing: kept only so cmd/topsload/ladder.go (frozen by BENCHMARK.json) compiles.
func (s *Server) Close() {}

// statusWriter captures the response code for metrics and carries the
// request's trace id so writeError can stamp it into error envelopes.
type statusWriter struct {
	http.ResponseWriter
	status int
	trace  string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush — the ingest stream flushes verdicts as they are produced.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with method filtering, body limiting and the
// endpoint's metrics block.
func (s *Server) instrument(m *routeMetrics, method string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumentBody(m, method, s.opts.Limits.MaxBodyBytes, h)
}

// instrumentBody is instrument with an explicit body cap, for routes
// (the ingest stream) whose bodies legitimately exceed MaxBodyBytes.
func (s *Server) instrumentBody(m *routeMetrics, method string, maxBody int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Deferred so a handler that aborts the connection (snapshot
		// stream failure panics with http.ErrAbortHandler) is still
		// counted; the panic continues unwinding afterwards.
		defer func() { m.observe(sw.status, time.Since(t0)) }()
		// Trace id: accept the client's (router, upstream service) when it
		// is well-formed, mint one otherwise. It is echoed on the response,
		// stamped into error envelopes, carried down the request context to
		// shard/follower calls, and keyed on by the slow-query log.
		trace := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(trace) {
			trace = obs.NewTraceID()
		}
		sw.trace = trace
		sw.Header().Set(obs.TraceHeader, trace)
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		if r.Method != method {
			writeError(sw, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("%s requires %s", r.URL.Path, method))
			return
		}
		r.Body = http.MaxBytesReader(sw, r.Body, maxBody)
		h(sw, r)
	}
}

// errorResponse is the uniform error body. Error is the human-readable
// message (kept for backward compatibility); Code is the stable
// machine-readable class clients should branch on (see the Code*
// constants and API.md).
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// TraceID echoes the request's trace id (client-supplied or minted at
	// the edge) so a failed call can be joined against server logs.
	TraceID string `json:"trace_id,omitempty"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	resp := errorResponse{Error: err.Error(), Code: code}
	if sw, ok := w.(*statusWriter); ok {
		resp.TraceID = sw.trace
	}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// bufPool recycles the request-body and response-encode buffers across
// requests: the serving hot path reads and writes through preallocated
// memory instead of allocating a fresh byte slice per request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	b.Reset()
	bufPool.Put(b)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	buf := getBuf()
	if err := json.NewEncoder(buf).Encode(v); err == nil {
		_, _ = w.Write(buf.Bytes())
	}
	putBuf(buf)
}

// queryStatus maps an engine-side query failure to an HTTP status and
// error code.
func queryStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, CodeCanceled
	default:
		// Structurally valid requests that the engine still rejects (an
		// instance left without representatives, FM over a non-binary ψ
		// that slipped the decoder) are client-resolvable.
		return http.StatusBadRequest, CodeBadRequest
	}
}

// QueryResponse is the wire form of one answer, at both tiers.
type QueryResponse struct {
	Sites              []int64 `json:"sites"`
	SiteIDs            []int32 `json:"site_ids"`
	EstimatedUtility   float64 `json:"estimated_utility"`
	EstimatedCovered   int     `json:"estimated_covered"`
	InstanceUsed       int     `json:"instance_used"`
	NumRepresentatives int     `json:"num_representatives"`
	ElapsedMs          float64 `json:"elapsed_ms"`
}

// NewQueryResponse encodes res, answered in elapsed, in wire form.
func NewQueryResponse(res *core.QueryResult, elapsed time.Duration) QueryResponse {
	out := QueryResponse{
		Sites:              make([]int64, len(res.Sites)),
		SiteIDs:            make([]int32, len(res.SiteIDs)),
		EstimatedUtility:   res.EstimatedUtility,
		EstimatedCovered:   res.EstimatedCovered,
		InstanceUsed:       res.InstanceUsed,
		NumRepresentatives: res.NumRepresentatives,
		ElapsedMs:          float64(elapsed.Nanoseconds()) / 1e6,
	}
	for i, v := range res.Sites {
		out.Sites[i] = int64(v)
	}
	for i, v := range res.SiteIDs {
		out.SiteIDs[i] = int32(v)
	}
	return out
}

// requestCtx derives the per-request context: the client's timeout (or the
// server default) on top of the connection context, so a disconnecting
// client cancels its own query at the next engine checkpoint.
func (s *Server) requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	return context.WithTimeout(r.Context(), timeout)
}

// readBody drains the request body into a pooled buffer. The caller owns
// the buffer on success and must putBuf it when done with the bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := getBuf()
	if _, err := io.Copy(buf, r.Body); err != nil {
		putBuf(buf)
		// Only genuine MaxBytesReader overruns are 413; a client that
		// resets mid-upload is a plain bad request.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		}
		return nil, false
	}
	return buf, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	q, err := DecodeQuery(body.Bytes(), s.opts.Limits)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	opts := q.Opts
	ctx, cancel := s.requestCtx(r, q.Timeout)
	defer cancel()
	t0 := time.Now()
	res, err := s.eng.Query(ctx, opts)
	if err != nil {
		status, code := queryStatus(err)
		writeError(w, status, code, err)
		return
	}
	elapsed := time.Since(t0)
	resp := NewQueryResponse(res, elapsed)
	coverHit, rowsSwept := res.CoverHit, res.CoverRowsSwept
	res.Release()
	if s.opts.SlowQuery > 0 && elapsed >= s.opts.SlowQuery {
		s.log.Warn("slow query",
			"trace_id", obs.TraceID(ctx),
			"k", opts.K,
			"psi", opts.Pref.Name,
			"psi_fp", core.PrefFingerprint(opts.Pref),
			"tau_km", opts.Pref.Tau,
			"fm", opts.UseFM,
			"cover_hit", coverHit,
			"cover_rows_swept", rowsSwept,
			"elapsed_ms", float64(elapsed.Nanoseconds())/1e6,
		)
	}
	writeJSON(w, resp)
}

// BatchResponse is the wire form of /v1/query/batch, at both tiers:
// results and errors are index-aligned with the request's queries.
type BatchResponse struct {
	Results []BatchItemResponse `json:"results"`
}

// BatchItemResponse is one slot of a BatchResponse: an answer or an error.
type BatchItemResponse struct {
	Result *QueryResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	qs, itemErrs, timeout, err := DecodeBatch(body.Bytes(), s.opts.Limits)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// Only structurally valid items reach the engine; invalid ones keep
	// their decode error in the index-aligned response.
	valid := make([]core.QueryOptions, 0, len(qs))
	slot := make([]int, 0, len(qs))
	for i := range qs {
		if itemErrs[i] == nil {
			valid = append(valid, qs[i].Opts)
			slot = append(slot, i)
		}
	}
	ctx, cancel := s.requestCtx(r, timeout)
	defer cancel()
	t0 := time.Now()
	items := s.eng.QueryBatch(ctx, valid)
	elapsed := time.Since(t0)
	out := BatchResponse{Results: make([]BatchItemResponse, len(qs))}
	for i, err := range itemErrs {
		if err != nil {
			out.Results[i].Error = err.Error()
		}
	}
	for j, it := range items {
		i := slot[j]
		if it.Err != nil {
			out.Results[i].Error = it.Err.Error()
			continue
		}
		qr := NewQueryResponse(it.Result, elapsed)
		it.Result.Release()
		out.Results[i].Result = &qr
	}
	writeJSON(w, out)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		writeError(w, http.StatusForbidden, CodeReadOnly, errors.New("read-only replica: send updates to the primary (or promote this replica)"))
		return
	}
	if own := s.engineEpoch(); s.fencedBy.Load() > own {
		writeError(w, http.StatusConflict, CodeFenced, fmt.Errorf("primary fenced: a peer opened epoch %d past ours (%d); this deposed node rejects writes", s.fencedBy.Load(), own))
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	u, err := wal.DecodeUpdate(body.Bytes())
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// Pricing a posted node sequence into a trajectory can fail on the live
	// graph (unknown node, unreachable hop): a conflict, like any other
	// mutation the engine refuses.
	tApply := time.Now()
	m, err := u.Mutation(s.eng.Graph())
	var applied wal.Applied
	if err == nil {
		applied, err = s.eng.Apply(m)
	}
	obs.UpdateApply.RecordSince(tApply)
	if err != nil {
		// A failed log append is the server's problem — the mutation
		// applied but its durability did not — everything else is a state
		// conflict (node already a site, id already deleted, node outside
		// graph): the client's fault.
		if errors.Is(err, wal.ErrLogFailed) {
			writeError(w, http.StatusInternalServerError, CodeLogFailed, err)
		} else {
			writeError(w, http.StatusConflict, CodeConflict, err)
		}
		return
	}
	resp := wal.NewUpdateAck(applied)
	// Semi-sync quorum: hold the ack until Quorum followers have durably
	// persisted past this mutation's LSN. On timeout the mutation has
	// still applied (and logged) locally — the envelope says so and the
	// client retries its read of the replicas, not the write.
	if resp.Quorum, err = s.awaitQuorum(r.Context(), resp.LSN); err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeQuorumTimeout, err)
		return
	}
	writeJSON(w, resp)
}

// handleCheckpoint streams the recovery bundle — the mutated dataset plus
// the LSN-stamped snapshot — under the engine read lock. Followers
// bootstrap from it when the primary's log has been compacted past LSN 1;
// operators can also curl it as an off-host backup that restores without
// the original preset's site/trajectory state.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="checkpoint.ncck"`)
	n, err := s.eng.Checkpoint(w)
	s.snapshotBytes.Add(n)
	if err != nil {
		// Headers are already on the wire; aborting the connection is the
		// only honest failure signal left. Mark the metrics status first so
		// the abort shows up as a 5xx on /statsz.
		if sw, ok := w.(*statusWriter); ok {
			sw.status = http.StatusInternalServerError
		}
		panic(http.ErrAbortHandler)
	}
}

// handleLog streams WAL records from ?from=<lsn> in the on-disk frame
// format. With ?wait=<dur> the request long-polls: a caught-up follower
// parks until the WAL's commit notification reports new records (or the
// wait lapses, the client disconnects, or the server drains), cutting
// replica lag from poll-interval to ~RTT. Followers piggyback their
// identity, durable ack position, and fencing token on the same request
// (?id=, ?acked=, ?peer_epoch=), feeding the quorum tracker and the
// deposed-primary latch.
//
// The response carries the log's first retained and head LSNs plus the
// primary's epoch in headers; they are part of the replication protocol
// (a follower measures lag off the head and fences a stale primary off the
// epoch). A from below the first retained LSN is 410
// Gone: those records were compacted away and the follower must bootstrap
// from /v1/checkpoint.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("from must be a positive LSN"))
		return
	}
	maxN := 8192
	if raw := q.Get("max"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 || v > 1<<16 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("max must be in 1..%d", 1<<16))
			return
		}
		maxN = v
	}
	var wait time.Duration
	if raw := q.Get("wait"); raw != "" {
		wait, err = time.ParseDuration(raw)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("wait must be a non-negative Go duration"))
			return
		}
		if wait > s.opts.MaxLogWait {
			wait = s.opts.MaxLogWait
		}
	}
	if id := q.Get("id"); id != "" {
		var acked uint64
		if raw := q.Get("acked"); raw != "" {
			acked, _ = strconv.ParseUint(raw, 10, 64)
		}
		s.acks.record(id, acked)
	}
	if raw := q.Get("peer_epoch"); raw != "" {
		if peer, perr := strconv.ParseUint(raw, 10, 64); perr == nil {
			s.noteFencing(peer)
		}
	}

	var expire <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expire = t.C
	}
	var recs []wal.Record
	var head uint64
	for {
		recs, head, err = s.opts.Log.ReadFrom(from, maxN)
		if err != nil || len(recs) > 0 || wait <= 0 || s.draining.Load() || r.Context().Err() != nil {
			break
		}
		// Grab the commit signal, then re-check the head: an append landing
		// between ReadFrom and CommitSignal would otherwise be missed.
		commit := s.opts.Log.CommitSignal()
		if s.opts.Log.HeadLSN() >= from {
			continue
		}
		stop := false
		select {
		case <-commit:
		case <-expire:
			stop = true
		case <-r.Context().Done():
			stop = true
		case <-s.drainSignal():
			stop = true
		}
		if stop {
			recs, head, err = s.opts.Log.ReadFrom(from, maxN)
			break
		}
	}
	w.Header().Set("X-Netclus-First-LSN", strconv.FormatUint(s.opts.Log.FirstLSN(), 10))
	w.Header().Set("X-Netclus-Head-LSN", strconv.FormatUint(head, 10))
	w.Header().Set("X-Netclus-Epoch", strconv.FormatUint(s.engineEpoch(), 10))
	if err != nil {
		if errors.Is(err, wal.ErrCompacted) {
			writeError(w, http.StatusGone, CodeLogCompacted, err)
		} else {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, rec := range recs {
		if err := wal.WriteFrame(w, rec); err != nil {
			return // client went away; nothing to salvage mid-stream
		}
		s.logRecords.Add(1)
	}
}

// ReplicationStatus is a follower's tailing report, embedded in /healthz
// and /statsz.
type ReplicationStatus struct {
	// Role is "follower" (primaries report their log under "wal" instead).
	Role string `json:"role"`
	// Primary is the URL the follower tails.
	Primary string `json:"primary"`
	// LSN is the last record applied locally; PrimaryLSN is the primary's
	// head at the last poll, and Lag their difference.
	LSN        uint64 `json:"lsn"`
	PrimaryLSN uint64 `json:"primary_lsn"`
	Lag        uint64 `json:"lag_records"`
	// LastPollSeconds is how long ago the last successful poll finished
	// (-1 before the first one).
	LastPollSeconds float64 `json:"last_poll_seconds"`
	// Polls and PollErrors count tailing rounds; LastError keeps the most
	// recent failure for /statsz visibility.
	Polls      uint64 `json:"polls"`
	PollErrors uint64 `json:"poll_errors"`
	LastError  string `json:"last_error,omitempty"`
	// Epoch is the fencing token this replica has applied from the
	// stream; PrimaryEpoch is the one the primary last reported.
	Epoch        uint64 `json:"epoch,omitempty"`
	PrimaryEpoch uint64 `json:"primary_epoch,omitempty"`
	// AckedLSN is the durable position last reported to the primary (the
	// quorum-ack channel piggybacked on tail requests).
	AckedLSN uint64 `json:"acked_lsn,omitempty"`
	// ConsecutiveFailures counts polls failed since the last success;
	// Unhealthy latches once the follower's threshold is crossed, and
	// /healthz answers 503 tail_stalled so a silently-stalled replica
	// leaves rotation instead of serving ever-staler reads.
	ConsecutiveFailures uint64 `json:"consecutive_failures,omitempty"`
	Unhealthy           bool   `json:"unhealthy,omitempty"`
	// NeedsBootstrap reports that the primary compacted past this replica's
	// position: polling can never catch up again and the replica serves
	// ever-staler reads until it is re-bootstrapped. /healthz answers 503
	// while this is set, so load balancers stop routing here.
	NeedsBootstrap bool `json:"needs_bootstrap,omitempty"`
	// Diverged reports that this replica's LSN is ahead of the primary's
	// reported head: the primary lost acknowledged history (or this
	// follower tails a fresh/behind primary after a re-point). Lag is
	// meaningless in that state and reads 0.
	Diverged bool `json:"diverged,omitempty"`
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status string `json:"status"`
	// Code is the machine-readable reason when unhealthy (draining,
	// need_bootstrap, tail_stalled); empty while healthy.
	Code          string  `json:"code,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Replication reports follower lag when this server is a read-replica.
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()}
	if s.opts.Replication != nil {
		st := s.opts.Replication()
		h.Replication = &st
		// Tailing health gates serving only while this node is still a
		// follower; a promoted primary's stale tail status is history.
		if s.readOnly.Load() {
			switch {
			case st.NeedsBootstrap:
				// The replica can never catch up by polling; take it out of
				// rotation rather than serving unboundedly stale reads as
				// healthy.
				h.Status, h.Code = "stale-replica", CodeNeedBootstrap
			case st.Unhealthy:
				// The tail loop has failed repeatedly: the replica is
				// silently falling behind.
				h.Status, h.Code = "tail-stalled", CodeTailStalled
			}
		}
	}
	if h.Code == "" && s.draining.Load() {
		h.Status, h.Code = "draining", CodeDraining
	}
	if h.Code != "" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", retryAfterSeconds)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

// statszResponse is the /statsz body: transport-level counters plus the
// engine's own Stats block.
type statszResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Draining      bool                  `json:"draining"`
	Build         obs.BuildInfo         `json:"build_info"`
	Engine        engine.Stats          `json:"engine"`
	Routes        map[string]routeStats `json:"routes"`
	// Ingest reports the live-ingestion pipeline (traces in, matched,
	// rejected, raw points, batches, match vs apply time) when POST
	// /v1/ingest is enabled.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
	// SnapshotBytes counts the checkpoint bytes streamed by /v1/checkpoint.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// WAL reports the primary's log (head/first LSN, segments, fsync
	// policy); Replication reports follower lag. LogRecordsServed counts
	// records streamed to followers over /v1/log.
	WAL              *wal.Stats         `json:"wal,omitempty"`
	Replication      *ReplicationStatus `json:"replication,omitempty"`
	LogRecordsServed uint64             `json:"log_records_served,omitempty"`
	// Memory reports the process allocation and GC counters, the
	// observability handle for the zero-allocation serving path: under a
	// steady cached-query load Mallocs should grow with the request
	// constant-rate, not with k or the dataset.
	Memory memStats `json:"memory"`
}

// memStats is the /statsz allocation block, a small projection of
// runtime.MemStats.
type memStats struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalMs  float64 `json:"gc_pause_total_ms"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
}

func readMemStats() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
		GCPauseTotalMs:  float64(ms.PauseTotalNs) / 1e6,
		GCCPUFraction:   ms.GCCPUFraction,
	}
}

// Stats assembles the full metrics block (also used by tests directly).
func (s *Server) Stats() statszResponse {
	resp := statszResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Build:         obs.ReadBuildInfo(),
		Engine:        s.eng.Stats(),
		Routes:        make(map[string]routeStats, len(s.routes)),
		SnapshotBytes: s.snapshotBytes.Load(),
		Memory:        readMemStats(),
	}
	for _, r := range s.routes {
		resp.Routes[r.name] = r.m.stats()
	}
	if s.ing != nil {
		st := s.ing.Stats()
		resp.Ingest = &st
	}
	if s.opts.Log != nil {
		st := s.opts.Log.Stats()
		resp.WAL = &st
		resp.LogRecordsServed = s.logRecords.Load()
	}
	if s.opts.Replication != nil {
		st := s.opts.Replication()
		resp.Replication = &st
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
