// /metrics: the Prometheus text-format projection of everything /statsz
// reports, plus the obs latency histograms. The exposition is hand-rolled
// through obs.ExpoWriter (no client library dependency) and every series
// carries the serving identity as base labels: role="primary"|"follower",
// and shard="<index>" when this process is a shard member.
//
// Family naming follows Prometheus conventions: *_total for monotonic
// counters, *_seconds for time, bare gauges for levels. Histograms expose
// the cumulative le= ladder of the obs log-spaced buckets, so p50/p99 are
// derivable with histogram_quantile() exactly as for a client_golang
// histogram.

package server

import (
	"net/http"
	"sort"
	"strconv"

	"netclus/internal/obs"
)

// metricsBase renders the label set merged into every exposed series. Role
// is live (a promotion flips follower → primary without restart).
func (s *Server) metricsBase() string {
	role := "primary"
	if s.readOnly.Load() {
		role = "follower"
	}
	base := `role="` + role + `"`
	if s.opts.Member != nil {
		base += `,shard="` + strconv.Itoa(s.opts.Member.ShardIndex()) + `"`
	}
	return base
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()
	ew := obs.NewExpoWriter(w, s.metricsBase())

	bi := st.Build
	ew.Family("netclus_build_info", "Build identity; value is always 1.", "gauge")
	ew.Sample("netclus_build_info",
		`go_version="`+obs.EscapeLabel(bi.GoVersion)+`",version="`+obs.EscapeLabel(bi.Version)+`",revision="`+obs.EscapeLabel(bi.Revision)+`"`, 1)
	ew.Family("netclus_uptime_seconds", "Seconds since process start.", "gauge")
	ew.Sample("netclus_uptime_seconds", "", obs.Uptime().Seconds())
	ew.Family("netclus_draining", "1 while the server is draining.", "gauge")
	ew.Sample("netclus_draining", "", boolGauge(st.Draining))

	ew.Family("netclus_http_requests_total", "Requests per route.", "counter")
	ew.Family("netclus_http_errors_total", "Error responses per route and class.", "counter")
	for _, route := range sortedRoutes(st.Routes) {
		rs := st.Routes[route]
		lbl := `route="` + obs.EscapeLabel(route) + `"`
		ew.Uint("netclus_http_requests_total", lbl, rs.Requests)
		ew.Uint("netclus_http_errors_total", lbl+`,class="4xx"`, rs.Errors4xx)
		ew.Uint("netclus_http_errors_total", lbl+`,class="5xx"`, rs.Errors5xx)
	}

	eng := st.Engine
	ew.Family("netclus_engine_queries_total", "Queries served, by path.", "counter")
	ew.Uint("netclus_engine_queries_total", `path="single"`, eng.Queries)
	ew.Uint("netclus_engine_queries_total", `path="batch"`, eng.BatchQueries)
	ew.Family("netclus_engine_batches_total", "Engine QueryBatch calls.", "counter")
	ew.Uint("netclus_engine_batches_total", "", eng.Batches)
	ew.Family("netclus_engine_updates_total", "Mutation calls applied.", "counter")
	ew.Uint("netclus_engine_updates_total", "", eng.Updates)
	ew.Family("netclus_engine_mutations_total", "Mutation items by kind.", "counter")
	ew.Uint("netclus_engine_mutations_total", `kind="site_add"`, eng.SiteAdds)
	ew.Uint("netclus_engine_mutations_total", `kind="site_delete"`, eng.SiteDeletes)
	ew.Uint("netclus_engine_mutations_total", `kind="traj_add"`, eng.TrajAdds)
	ew.Uint("netclus_engine_mutations_total", `kind="traj_delete"`, eng.TrajDeletes)
	ew.Family("netclus_engine_errors_total", "Failed queries (single or batch items).", "counter")
	ew.Uint("netclus_engine_errors_total", "", eng.Errors)
	ew.Family("netclus_engine_canceled_total", "Queries aborted by cancellation or deadline.", "counter")
	ew.Uint("netclus_engine_canceled_total", "", eng.Canceled)
	ew.Family("netclus_cover_cache_hits_total", "Cover lookups that swept no representative row.", "counter")
	ew.Uint("netclus_cover_cache_hits_total", "", eng.CoverHits)
	ew.Family("netclus_cover_cache_misses_total", "Cover lookups that swept rows (patches and cold fills).", "counter")
	ew.Uint("netclus_cover_cache_misses_total", "", eng.CoverMisses)
	ew.Family("netclus_cover_cache_revalidations_total", "Cover-cache hits that re-checked a cover against moved representatives.", "counter")
	ew.Uint("netclus_cover_cache_revalidations_total", "", eng.CoverRevalidated)
	ew.Family("netclus_cover_cache_rows_swept_total", "Representative rows swept by cover-cache misses.", "counter")
	ew.Uint("netclus_cover_cache_rows_swept_total", "", eng.CoverRowsSwept)
	ew.Family("netclus_cover_cache_entries", "Covers currently memoized.", "gauge")
	ew.Sample("netclus_cover_cache_entries", "", float64(eng.CoverEntries))
	ew.Family("netclus_engine_lsn", "Last WAL LSN applied by the engine.", "gauge")
	ew.Uint("netclus_engine_lsn", "", eng.LSN)
	ew.Family("netclus_engine_epoch", "Replication fencing epoch last observed.", "gauge")
	ew.Uint("netclus_engine_epoch", "", eng.Epoch)

	if st.Ingest != nil {
		in := st.Ingest
		ew.Family("netclus_ingest_traces_total", "Ingested GPS trace lines by outcome.", "counter")
		ew.Uint("netclus_ingest_traces_total", `outcome="matched"`, in.Matched)
		ew.Uint("netclus_ingest_traces_total", `outcome="rejected"`, in.Rejected)
		ew.Family("netclus_ingest_points_total", "Raw GPS points decoded.", "counter")
		ew.Uint("netclus_ingest_points_total", "", in.Points)
		ew.Family("netclus_ingest_batches_total", "AddTrajectories mutations applied by ingest.", "counter")
		ew.Uint("netclus_ingest_batches_total", "", in.Batches)
	}

	if st.WAL != nil {
		wl := st.WAL
		ew.Family("netclus_wal_head_lsn", "WAL head (last committed) LSN.", "gauge")
		ew.Uint("netclus_wal_head_lsn", "", wl.HeadLSN)
		ew.Family("netclus_wal_first_lsn", "First retained WAL LSN (compaction floor).", "gauge")
		ew.Uint("netclus_wal_first_lsn", "", wl.FirstLSN)
		ew.Family("netclus_wal_segments", "Live WAL segment files.", "gauge")
		ew.Sample("netclus_wal_segments", "", float64(wl.Segments))
		ew.Family("netclus_wal_size_bytes", "WAL on-disk size.", "gauge")
		ew.Sample("netclus_wal_size_bytes", "", float64(wl.SizeBytes))
		ew.Family("netclus_wal_appends_total", "WAL records appended.", "counter")
		ew.Uint("netclus_wal_appends_total", "", wl.Appends)
		ew.Family("netclus_wal_syncs_total", "WAL fsync calls.", "counter")
		ew.Uint("netclus_wal_syncs_total", "", wl.Syncs)
		ew.Family("netclus_log_records_served_total", "WAL records streamed to followers.", "counter")
		ew.Uint("netclus_log_records_served_total", "", st.LogRecordsServed)

		head := wl.HeadLSN
		acks := s.acks.snapshot(head)
		if len(acks) > 0 {
			ew.Family("netclus_follower_acked_lsn", "Durable LSN last acked, per follower.", "gauge")
			ew.Family("netclus_follower_lag_records", "Primary head minus follower durable LSN.", "gauge")
			ew.Family("netclus_follower_seconds_since_seen", "Seconds since the follower's last tail request.", "gauge")
			for _, a := range acks {
				lbl := `follower="` + obs.EscapeLabel(a.ID) + `"`
				ew.Uint("netclus_follower_acked_lsn", lbl, a.AckedLSN)
				ew.Uint("netclus_follower_lag_records", lbl, a.Lag)
				ew.Sample("netclus_follower_seconds_since_seen", lbl, a.SecondsSinceSeen)
			}
		}
	}

	if st.Replication != nil {
		rs := st.Replication
		ew.Family("netclus_replication_lag_records", "Records behind the tailed primary.", "gauge")
		ew.Uint("netclus_replication_lag_records", "", rs.Lag)
		ew.Family("netclus_replication_polls_total", "Tail rounds against the primary.", "counter")
		ew.Uint("netclus_replication_polls_total", "", rs.Polls)
		ew.Family("netclus_replication_poll_errors_total", "Failed tail rounds.", "counter")
		ew.Uint("netclus_replication_poll_errors_total", "", rs.PollErrors)
		ew.Family("netclus_replication_unhealthy", "1 while the tail loop is stalled or needs bootstrap.", "gauge")
		ew.Sample("netclus_replication_unhealthy", "", boolGauge(rs.Unhealthy || rs.NeedsBootstrap))
	}

	mem := st.Memory
	ew.Family("netclus_go_heap_alloc_bytes", "Live heap bytes.", "gauge")
	ew.Uint("netclus_go_heap_alloc_bytes", "", mem.HeapAllocBytes)
	ew.Family("netclus_go_mallocs_total", "Cumulative heap allocations.", "counter")
	ew.Uint("netclus_go_mallocs_total", "", mem.Mallocs)
	ew.Family("netclus_go_gc_cycles_total", "Completed GC cycles.", "counter")
	ew.Uint("netclus_go_gc_cycles_total", "", uint64(mem.NumGC))
	ew.Family("netclus_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", "counter")
	ew.Sample("netclus_go_gc_pause_seconds_total", "", mem.GCPauseTotalMs/1e3)

	obs.WriteLatencyHistograms(ew)
	_ = ew.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sortedRoutes orders the route map for a deterministic exposition (scrape
// diffing and the golden test both want stable output).
func sortedRoutes(m map[string]routeStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
