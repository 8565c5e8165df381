package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/server"
	"netclus/internal/wal"
)

// Error codes mirror the serving tier's envelope so clients see one
// vocabulary regardless of tier; the last two are router-specific.
const (
	codeBadRequest = "bad_request"
	// codeShardUnavailable: a shard had no reachable member within the
	// attempt budget; retryable after failover/promotion.
	codeShardUnavailable = "shard_unavailable"
	// codeNotImplemented: the endpoint exists in the single-process
	// topologies but not behind the router.
	codeNotImplemented = "not_implemented"
	// codeTopologyDiverged: a broadcast mutation applied on some shards
	// and failed on another — the topology needs repair (replay from the
	// failed shard's WAL position) before it is trustworthy.
	codeTopologyDiverged = "topology_diverged"
)

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// TraceID echoes the request's trace id (client-supplied or minted at
	// the router edge) so a failed call joins with router and member logs.
	TraceID string `json:"trace_id,omitempty"`
}

// traceWriter carries the request's trace id to writeError.
type traceWriter struct {
	http.ResponseWriter
	trace string
}

func (w *traceWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func writeError(w http.ResponseWriter, status int, code string, err error) {
	resp := errorResponse{Error: err.Error(), Code: code}
	if tw, ok := w.(*traceWriter); ok {
		resp.TraceID = tw.trace
	}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// strictUnmarshal matches the serving tier's decode discipline: exactly
// one JSON value, unknown fields rejected.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// routes mounts the router's HTTP surface.
func (r *Router) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", r.methodGate(http.MethodPost, r.handleQuery))
	mux.HandleFunc("/v1/query/batch", r.methodGate(http.MethodPost, r.handleBatch))
	mux.HandleFunc("/v1/update", r.methodGate(http.MethodPost, r.handleUpdate))
	mux.HandleFunc("/v1/ingest", r.methodGate(http.MethodPost, r.handleIngest))
	mux.HandleFunc("/v1/topology", r.handleTopology)
	mux.HandleFunc("/healthz", r.methodGate(http.MethodGet, r.handleHealth))
	mux.HandleFunc("/statsz", r.methodGate(http.MethodGet, r.handleStats))
	mux.HandleFunc("/metrics", r.methodGate(http.MethodGet, r.handleMetrics))
	r.mux = mux
}

// ServeHTTP makes the Router an http.Handler. Every request enters with a
// trace id — the client's when well-formed, a fresh one otherwise — echoed
// on the response, stamped into error envelopes, and forwarded on every
// member call the request fans out to.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	trace := req.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	tw := &traceWriter{ResponseWriter: w, trace: trace}
	tw.Header().Set(obs.TraceHeader, trace)
	req = req.WithContext(obs.WithTrace(req.Context(), trace))
	r.mux.ServeHTTP(tw, req)
}

func (r *Router) methodGate(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, codeBadRequest, fmt.Errorf("%s requires %s", req.URL.Path, method))
			return
		}
		h(w, req)
	}
}

// requestCtx bounds one request end-to-end: the client's decoded timeout
// when given, else one minute (each member call is separately bounded by
// ShardTimeout).
func requestCtx(req *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	return context.WithTimeout(req.Context(), timeout)
}

// queryError maps a query failure to the wire: terminal member answers
// relay their status and code; an exhausted attempt budget is 503.
func (r *Router) queryError(w http.ResponseWriter, err error) {
	r.errs.Add(1)
	var me *memberError
	if errors.As(err, &me) {
		writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, err)
		return
	}
	var he *httpError
	if errors.As(err, &he) {
		code := he.code
		if code == "" {
			code = codeBadRequest
		}
		writeError(w, he.status, code, err)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "timeout", err)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, err)
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	q, err := server.DecodeQuery(raw, server.Limits{})
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	ctx, cancel := requestCtx(req, q.Timeout)
	defer cancel()
	r.queries.Add(1)
	res, err := r.query(ctx, q)
	if err != nil {
		r.queryError(w, err)
		return
	}
	writeJSON(w, res)
}

// handleBatch answers each query in order: a routed query holds the read
// lock and the members' connections for one scatter, so interleaving whole
// queries gains nothing. One bad item degrades only its own slot, as in the
// serving tier.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(req.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	qs, itemErrs, timeout, err := server.DecodeBatch(raw, server.Limits{})
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	ctx, cancel := requestCtx(req, timeout)
	defer cancel()
	r.batches.Add(1)
	out := server.BatchResponse{Results: make([]server.BatchItemResponse, len(qs))}
	for i, q := range qs {
		if itemErrs[i] != nil {
			out.Results[i].Error = itemErrs[i].Error()
			continue
		}
		res, err := r.query(ctx, q)
		if err != nil {
			out.Results[i].Error = err.Error()
			continue
		}
		out.Results[i].Result = &res
	}
	writeJSON(w, out)
}

// wireUpdate mirrors the serving tier's /v1/update body; the router
// decodes it only to route, then forwards the re-encoded form.
type wireUpdate struct {
	Op    string  `json:"op"`
	Node  int64   `json:"node,omitempty"`
	Nodes []int64 `json:"nodes,omitempty"`
	ID    int64   `json:"id,omitempty"`
}

// handleIngest: the router deliberately does not serve live GPS
// ingestion. Map-matching needs the road network and its spatial index,
// which the stateless router tier does not load — and shipping raw traces
// to one shard would ingest into that shard only, diverging the
// replicated trajectory store. The supported story is single-process:
// stream to a single-index topsserve primary, whose /v1/ingest matches
// locally and applies the resulting AddTrajectories mutations through the
// usual write path. Behind a
// router, run the matcher client-side (netclus.Matcher) and POST the
// matched walks as add_trajectory updates, which the router broadcasts.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	writeError(w, http.StatusNotImplemented, codeNotImplemented,
		fmt.Errorf("the router tier does not map-match: stream raw traces to a single-process topsserve /v1/ingest, or match client-side and broadcast add_trajectory updates via /v1/update"))
}

// handleUpdate routes one mutation by its kind's wal.Kind.Routed: site ops
// to the owning shard's primary, trajectory ops broadcast to every shard
// (member 0 first — it validates the request before the others commit). The
// write lock serializes against in-flight queries, so a router-routed
// history has the in-process engine's sequential semantics.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(req.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	var u wireUpdate
	if err := strictUnmarshal(raw, &u); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	ctx, cancel := requestCtx(req, 0)
	defer cancel()
	r.updates.Add(1)

	r.mu.Lock()
	defer r.mu.Unlock()
	kind, ok := wal.KindByName(u.Op)
	switch {
	case u.Op == "":
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("missing op"))
	case !ok || !kind.Single():
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("unknown op %q (want add_site, delete_site, add_trajectory or delete_trajectory)", u.Op))
	case kind.Routed():
		if u.Node < 0 || u.Node > math.MaxInt32 {
			writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("node %d outside int32 range", u.Node))
			return
		}
		j, err := r.ownerOf(ctx, u.Node)
		if err != nil {
			r.errs.Add(1)
			writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, err)
			return
		}
		status, body, err := r.relay(ctx, j, raw)
		if err != nil {
			r.errs.Add(1)
			writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, &memberError{shard: j, err: err})
			return
		}
		if status/100 == 2 {
			if kind == wal.KindAddSite {
				r.sites.Add(roadnet.NodeID(u.Node))
			} else {
				r.sites.Delete(roadnet.NodeID(u.Node))
			}
			r.dropOwnership()
		}
		relayResponse(w, status, body)
	default:
		var status int
		var body []byte
		for j := 0; j < r.n; j++ {
			st, b, err := r.relay(ctx, j, raw)
			if err != nil || st/100 != 2 {
				if err == nil {
					err = decodeEnvelope(st, b)
				}
				r.errs.Add(1)
				if j == 0 {
					// Nothing committed anywhere yet: relay the first member's
					// verdict (or report it unreachable) and stay consistent.
					if b != nil {
						relayResponse(w, st, b)
					} else {
						writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, &memberError{shard: j, err: err})
					}
					return
				}
				writeError(w, http.StatusBadGateway, codeTopologyDiverged,
					fmt.Errorf("%s committed on shards [0,%d) but failed on shard %d: %v; repair the shard from its peers' WALs before trusting answers", u.Op, j, j, err))
				return
			}
			if j == 0 {
				status, body = st, b
			}
		}
		relayResponse(w, status, body)
	}
}

// relay forwards the raw update body to shard j's active member.
func (r *Router) relay(ctx context.Context, j int, body []byte) (int, []byte, error) {
	cctx, cancel := context.WithTimeout(ctx, r.opts.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, r.activeURL(j)+"/v1/update", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr := obs.TraceID(ctx); tr != "" {
		req.Header.Set(obs.TraceHeader, tr)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func relayResponse(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// decodeEnvelope turns a member's error envelope into an error.
func decodeEnvelope(status int, body []byte) error {
	var env errorResponse
	_ = json.Unmarshal(body, &env)
	if env.Error == "" {
		env.Error = string(body)
	}
	return &httpError{status: status, code: env.Code, msg: env.Error}
}

// topologyRequest is POST /v1/topology: make primary shard j's active
// target (the re-point step after promoting a follower).
type topologyRequest struct {
	Shard   int    `json:"shard"`
	Primary string `json:"primary"`
}

func (r *Router) handleTopology(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		writeJSON(w, struct {
			Shards      []topologyShard `json:"shards"`
			Partitioner string          `json:"partitioner"`
		}{Shards: r.topology(), Partitioner: r.partName})
	case http.MethodPost:
		raw, err := io.ReadAll(io.LimitReader(req.Body, 1<<16))
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		var t topologyRequest
		if err := strictUnmarshal(raw, &t); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		if err := r.Repoint(t.Shard, t.Primary); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		writeJSON(w, struct {
			OK      bool   `json:"ok"`
			Shard   int    `json:"shard"`
			Primary string `json:"primary"`
		}{OK: true, Shard: t.Shard, Primary: t.Primary})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, codeBadRequest, fmt.Errorf("/v1/topology requires GET or POST"))
	}
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, struct {
		Status        string  `json:"status"`
		Shards        int     `json:"shards"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{Status: "ok", Shards: r.n, UptimeSeconds: time.Since(r.start).Seconds()})
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	sites := len(r.sites.Sites())
	warn := r.siteWarn
	r.mu.RUnlock()
	writeJSON(w, struct {
		Shards             int             `json:"shards"`
		Partitioner        string          `json:"partitioner"`
		UptimeSeconds      float64         `json:"uptime_seconds"`
		Queries            uint64          `json:"queries"`
		Batches            uint64          `json:"batches"`
		Updates            uint64          `json:"updates"`
		Retries            uint64          `json:"retries"`
		Failovers          uint64          `json:"failovers"`
		Errors             uint64          `json:"errors"`
		Sites              int             `json:"sites"`
		SiteIDWarning      string          `json:"site_id_warning,omitempty"`
		OwnershipInstances []int           `json:"ownership_instances"`
		Topology           []topologyShard `json:"topology"`
	}{
		Shards:             r.n,
		Partitioner:        r.partName,
		UptimeSeconds:      time.Since(r.start).Seconds(),
		Queries:            r.queries.Load(),
		Batches:            r.batches.Load(),
		Updates:            r.updates.Load(),
		Retries:            r.retries.Load(),
		Failovers:          r.failovers.Load(),
		Errors:             r.errs.Load(),
		Sites:              sites,
		SiteIDWarning:      warn,
		OwnershipInstances: r.sortedInstances(),
		Topology:           r.topology(),
	})
}
