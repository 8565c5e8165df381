package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/wal"
)

// routes mounts the router's HTTP surface, every route through the
// serving tier's edge (server.Edge), so both tiers mint trace ids, gate
// methods, cap bodies and answer errors alike. The router keeps no route
// blocks: its /statsz and /metrics report its own counters.
func (r *Router) routes() {
	mux := http.NewServeMux()
	handle := func(path, method string, h http.HandlerFunc) {
		mux.HandleFunc(path, server.Edge(nil, method, server.DefaultMaxBodyBytes, h))
	}
	handle("/v1/query", http.MethodPost, r.handleQuery)
	handle("/v1/query/batch", http.MethodPost, r.handleBatch)
	handle("/v1/update", http.MethodPost, r.handleUpdate)
	handle("/v1/ingest", http.MethodPost, r.handleIngest)
	handle("/v1/topology", "", r.handleTopology)
	handle("/healthz", http.MethodGet, r.handleHealth)
	handle("/statsz", http.MethodGet, r.handleStats)
	handle("/metrics", http.MethodGet, r.handleMetrics)
	r.mux = mux
}

// ServeHTTP makes the Router an http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

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
// status and code; any other member failure is 503; the request context's
// lapse and everything else map as at a member (server.QueryStatus).
func (r *Router) failure(w http.ResponseWriter, err error) {
	r.errs.Add(1)
	var ua *unavailable
	var se *shard.ShardError
	var he *httpError
	switch {
	case errors.Is(err, shard.ErrDiverged):
		server.WriteError(w, http.StatusBadGateway, server.CodeTopologyDiverged, err)
	case errors.As(err, &ua):
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeShardUnavailable, err)
	case errors.As(err, &he):
		code := he.code
		if code == "" {
			code = server.CodeBadRequest
		}
		server.WriteError(w, he.status, code, errors.New(he.msg))
	case errors.As(err, &se):
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeShardUnavailable, err)
	default:
		status, code := server.QueryStatus(err)
		server.WriteError(w, status, code, err)
	}
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	body, ok := server.ReadBody(w, req)
	if !ok {
		return
	}
	q, err := server.DecodeQuery(body.Bytes(), server.Limits{})
	server.PutBuf(body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
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
	server.WriteJSON(w, res)
}

// handleBatch answers each query in order: a routed query holds the read
// lock and the members' connections for one scatter, so interleaving whole
// queries gains nothing. One bad item degrades only its own slot, as in the
// serving tier.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	body, ok := server.ReadBody(w, req)
	if !ok {
		return
	}
	qs, itemErrs, timeout, err := server.DecodeBatch(body.Bytes(), server.Limits{})
	server.PutBuf(body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
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
	server.WriteJSON(w, out)
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
	server.WriteError(w, http.StatusNotImplemented, server.CodeNotImplemented,
		fmt.Errorf("the router tier does not map-match: stream raw traces to a single-process topsserve /v1/ingest, or match client-side and broadcast add_trajectory updates via /v1/update"))
}

// handleUpdate hands one mutation, decoded by the serving tier's own
// decoder, to the core's router (shard.Sharded.Update: site ops to the
// owning shard's primary, trajectory ops to every shard, member 0 first)
// and answers with the member's ack. The core's write lock serializes it
// against in-flight queries, so a router-routed history has the in-process
// engine's sequential semantics.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	body, ok := server.ReadBody(w, req)
	if !ok {
		return
	}
	u, err := wal.DecodeUpdate(body.Bytes())
	server.PutBuf(body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
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
	server.WriteJSON(w, ack)
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
		server.WriteJSON(w, struct {
			Shards []topologyShard `json:"shards"`
		}{Shards: r.topology()})
	case http.MethodPost:
		body, ok := server.ReadBody(w, req)
		if !ok {
			return
		}
		var t topologyRequest
		err := server.StrictUnmarshal(body.Bytes(), &t)
		server.PutBuf(body)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
			return
		}
		if err := r.Repoint(t.Shard, t.Primary); err != nil {
			server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
			return
		}
		server.WriteJSON(w, struct {
			OK      bool   `json:"ok"`
			Shard   int    `json:"shard"`
			Primary string `json:"primary"`
		}{OK: true, Shard: t.Shard, Primary: t.Primary})
	default:
		w.Header().Set("Allow", "GET, POST")
		server.WriteError(w, http.StatusMethodNotAllowed, server.CodeMethodNotAllowed, fmt.Errorf("/v1/topology requires GET or POST"))
	}
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	server.WriteJSON(w, struct {
		Status        string  `json:"status"`
		Shards        int     `json:"shards"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{Status: "ok", Shards: len(r.slots), UptimeSeconds: time.Since(r.start).Seconds()})
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	server.WriteJSON(w, struct {
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
