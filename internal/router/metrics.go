// /metrics: the router tier's Prometheus exposition. Everything /statsz
// reports — topology, route counters, failover/retry counters — plus the
// shared obs latency histograms (of which only the scatter family — one
// observation per query attempt's cover fetch — is populated on a router;
// the serving families stay empty).

package router

import (
	"net/http"
	"strconv"

	"netclus/internal/obs"
)

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ew := obs.NewExpoWriter(w, `role="router"`)

	bi := obs.ReadBuildInfo()
	ew.Family("netclus_build_info", "Build identity; value is always 1.", "gauge")
	ew.Sample("netclus_build_info",
		`go_version="`+obs.EscapeLabel(bi.GoVersion)+`",version="`+obs.EscapeLabel(bi.Version)+`",revision="`+obs.EscapeLabel(bi.Revision)+`"`, 1)
	ew.Family("netclus_uptime_seconds", "Seconds since process start.", "gauge")
	ew.Sample("netclus_uptime_seconds", "", obs.Uptime().Seconds())

	st := r.core.Status()
	ew.Family("netclus_router_shards", "Shards in the routed topology.", "gauge")
	ew.Sample("netclus_router_shards", "", float64(st.Shards))
	ew.Family("netclus_router_queries_total", "Queries accepted (batch items counted via batches).", "counter")
	ew.Uint("netclus_router_queries_total", "", r.queries.Load())
	ew.Family("netclus_router_batches_total", "Batch requests accepted.", "counter")
	ew.Uint("netclus_router_batches_total", "", r.batches.Load())
	ew.Family("netclus_router_updates_total", "Mutations routed.", "counter")
	ew.Uint("netclus_router_updates_total", "", r.updates.Load())
	ew.Family("netclus_router_retries_total", "Query restarts after a member failure.", "counter")
	ew.Uint("netclus_router_retries_total", "", r.retries.Load())
	ew.Family("netclus_router_failovers_total", "Shard cursor advances past a failed member.", "counter")
	ew.Uint("netclus_router_failovers_total", "", r.failovers.Load())
	ew.Family("netclus_router_errors_total", "Requests answered with an error envelope.", "counter")
	ew.Uint("netclus_router_errors_total", "", r.errs.Load())

	r.mu.RLock()
	type shardRow struct {
		j      int
		active int
		urls   int
		failed bool
	}
	rows := make([]shardRow, len(r.slots))
	for j, s := range r.slots {
		rows[j] = shardRow{j: j, active: s.active, urls: len(s.urls), failed: s.lastErr != ""}
	}
	r.mu.RUnlock()
	ew.Family("netclus_router_sites", "Sites in the dense-id mirror.", "gauge")
	ew.Sample("netclus_router_sites", "", float64(st.Sites))
	ew.Family("netclus_router_shard_members", "Member URLs known per shard.", "gauge")
	ew.Family("netclus_router_shard_active_cursor", "Index of the shard's active member URL.", "gauge")
	ew.Family("netclus_router_shard_last_error", "1 when the shard's last member call failed.", "gauge")
	for _, row := range rows {
		lbl := `idx="` + strconv.Itoa(row.j) + `"`
		ew.Sample("netclus_router_shard_members", lbl, float64(row.urls))
		ew.Sample("netclus_router_shard_active_cursor", lbl, float64(row.active))
		v := 0.0
		if row.failed {
			v = 1
		}
		ew.Sample("netclus_router_shard_last_error", lbl, v)
	}

	obs.WriteLatencyHistograms(ew)
	_ = ew.Err()
}
