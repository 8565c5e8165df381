package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"netclus/internal/obs"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/wal"
)

// Error codes mirror the serving tier's envelope (server.Code* where the
// tiers share a case) so clients see one vocabulary regardless of tier;
// the last three are router-specific.
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
	req.Body = http.MaxBytesReader(tw, req.Body, server.DefaultMaxBodyBytes)
	r.mux.ServeHTTP(tw, req)
}

func (r *Router) methodGate(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, server.CodeMethodNotAllowed, fmt.Errorf("%s requires %s", req.URL.Path, method))
			return
		}
		h(w, req)
	}
}

// readBody reads a request body, which ServeHTTP capped at the serving
// tier's default: an overrun is 413 too_large, as a member answers it.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, server.CodeTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
		}
		return nil, false
	}
	return raw, true
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

// failure maps a query or update failure to the wire: a trajectory update
// that committed on part of the topology is 502 topology_diverged; a query
// out of attempts is 503; a member's own verdict is re-emitted with its
// status and code; any other member failure is 503.
func (r *Router) failure(w http.ResponseWriter, err error) {
	r.errs.Add(1)
	var ua *unavailable
	var se *shard.ShardError
	var he *httpError
	switch {
	case errors.Is(err, shard.ErrDiverged):
		writeError(w, http.StatusBadGateway, codeTopologyDiverged, err)
	case errors.As(err, &ua):
		writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, err)
	case errors.As(err, &he):
		code := he.code
		if code == "" {
			code = codeBadRequest
		}
		writeError(w, he.status, code, errors.New(he.msg))
	case errors.As(err, &se):
		writeError(w, http.StatusServiceUnavailable, codeShardUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "timeout", err)
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
	}
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	raw, ok := readBody(w, req)
	if !ok {
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
		r.failure(w, err)
		return
	}
	writeJSON(w, res)
}

// handleBatch answers each query in order: a routed query holds the read
// lock and the members' connections for one scatter, so interleaving whole
// queries gains nothing. One bad item degrades only its own slot, as in the
// serving tier.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	raw, ok := readBody(w, req)
	if !ok {
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

// handleUpdate hands one mutation, decoded by the serving tier's own
// decoder, to the core's router (shard.Sharded.Update: site ops to the
// owning shard's primary, trajectory ops to every shard, member 0 first)
// and answers with the member's ack. The core's write lock serializes it
// against in-flight queries, so a router-routed history has the in-process
// engine's sequential semantics.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	raw, ok := readBody(w, req)
	if !ok {
		return
	}
	u, err := wal.DecodeUpdate(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	ctx, cancel := requestCtx(req, 0)
	defer cancel()
	r.updates.Add(1)
	ack, err := r.core.Update(ctx, u)
	if err != nil {
		r.failure(w, err)
		return
	}
	writeJSON(w, ack)
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
			Shards []topologyShard `json:"shards"`
		}{Shards: r.topology()})
	case http.MethodPost:
		raw, ok := readBody(w, req)
		if !ok {
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
		writeError(w, http.StatusMethodNotAllowed, server.CodeMethodNotAllowed, fmt.Errorf("/v1/topology requires GET or POST"))
	}
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, struct {
		Status        string  `json:"status"`
		Shards        int     `json:"shards"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{Status: "ok", Shards: len(r.slots), UptimeSeconds: time.Since(r.start).Seconds()})
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, struct {
		shard.Status
		UptimeSeconds float64         `json:"uptime_seconds"`
		Queries       uint64          `json:"queries"`
		Batches       uint64          `json:"batches"`
		Updates       uint64          `json:"updates"`
		Retries       uint64          `json:"retries"`
		Failovers     uint64          `json:"failovers"`
		Errors        uint64          `json:"errors"`
		Topology      []topologyShard `json:"topology"`
	}{
		Status:        r.core.Status(),
		UptimeSeconds: time.Since(r.start).Seconds(),
		Queries:       r.queries.Load(),
		Batches:       r.batches.Load(),
		Updates:       r.updates.Load(),
		Retries:       r.retries.Load(),
		Failovers:     r.failovers.Load(),
		Errors:        r.errs.Load(),
		Topology:      r.topology(),
	})
}
