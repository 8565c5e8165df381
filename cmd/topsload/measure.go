package main

import (
	"fmt"
	"sort"
)

// counters is one process's scrape flattened to the numbers that only ever
// grow, by short name, so that a window's change is a subtraction and a
// topology's total a sum. Histograms contribute "<name>.sum" (seconds) and
// "<name>.count"; routes "<path>.requests" and "<path>.ms".
type counters map[string]float64

func (s *scrape) counters() counters {
	st := s.stats
	c := counters{
		"cpu_ms":         s.proc.cpuMs,
		"engine.queries": float64(st.Engine.Queries + st.Engine.BatchQueries),
		"cover.hits":     float64(st.Engine.CoverHits),
		"cover.misses":   float64(st.Engine.CoverMisses),
		"cover.ms":       float64(st.Engine.CoverNs) / 1e6,
		"greedy.us":      float64(st.Engine.GreedyNs) / 1e3,
		"batch.flushes":  float64(st.Batching.Flushes),
		"batch.queries":  float64(st.Batching.Coalesced),
		"wal.appends":    float64(st.WAL.Appends),
		"wal.syncs":      float64(st.WAL.Syncs),
		"wal.bytes":      float64(st.WAL.AppendedBytes),
		"mallocs":        float64(st.Memory.Mallocs),
		"ingest.matched": float64(st.Ingest.Matched),
		"ingest.reject":  float64(st.Ingest.Rejected),
		"ingest.points":  float64(st.Ingest.Points),
		"ingest.windows": float64(st.Ingest.Batches),
		"ingest.matchms": float64(st.Ingest.MatchMs),
		"ingest.applyms": float64(st.Ingest.ApplyMs),
		"router.queries": float64(st.Queries),
		"router.retries": float64(st.Retries),
		"router.failovr": float64(st.Failovers),
	}
	for path, r := range st.Routes {
		c[path+".requests"] = float64(r.Requests)
		c[path+".ms"] = r.TotalMs
	}
	for name, family := range map[string]string{
		"update_apply": "netclus_update_apply_seconds",
		"fsync":        "netclus_wal_fsync_seconds",
		"scatter":      "netclus_router_scatter_seconds",
	} {
		c[name+".sum"], c[name+".count"] = s.metrics.histogram(family)
	}
	return c
}

// minus is the change from before to c.
func (c counters) minus(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

func (c counters) plus(o counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// per divides, reading an empty denominator as "nothing happened".
func per(total, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return total / n
}

// meanMs is the mean of histogram name in milliseconds.
func (c counters) meanMs(name string) float64 {
	return per(c[name+".sum"], c[name+".count"]) * 1e3
}

// measure turns the window into metrics: the end-to-end ones first, then
// what the servers' own instruments say about each layer, then the client,
// then the cross-check between the two sides' books.
func measure(rep *report, cfg *config, topo *topology, win *window) {
	var queries, updates []sample
	sentQueries := 0
	for _, s := range win.samples {
		if s.kind == opQuery {
			sentQueries++
		}
		switch {
		case !s.ok:
		case s.kind == opQuery:
			queries = append(queries, s)
		default:
			updates = append(updates, s)
		}
	}
	sentUpdates := len(win.samples) - sentQueries
	rep.attempted += len(win.samples)
	if bad := len(win.samples) - len(queries) - len(updates); bad > 0 {
		rep.failed += bad
		rep.problem("%d operations in the window failed (transport error, non-200, or an answer the oracle rejects)", bad)
	}

	// Per-process change over the window, and its total. The router, when
	// there is one, is the last process; the rest are topsserve.
	var total, router counters
	serving := win.after
	for i := range topo.procs {
		d := win.after[i].counters().minus(win.before[i].counters())
		total = total.plus(d)
		if topo.procs[i] == topo.router {
			router, serving = d, win.after[:i]
		}
	}

	// End to end. Samples sit on the window's time axis at their due
	// time; the axis is as long as the window was scheduled to be.
	span := float64(cfg.seconds)
	if win.ingest != nil {
		span = win.ingest.lastVerdict.Seconds()
	}
	quantiles := func(prefix string, ss []sample) {
		lat := make([]timed, len(ss))
		for i, s := range ss {
			lat[i] = timed{s.due.Seconds(), s.latencyMs()}
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p95", 0.95}} {
			rep.add(prefix+"_"+q.name+"_ms", sliceQuantile(lat, q.q, span), "ms",
				fmt.Sprintf("n=%d, median of %d slice(s)", len(lat), sliceCount(len(lat), q.q)))
		}
	}
	quantiles("query", queries)

	ops, what := len(queries), "queries"
	rateNote := "closed-loop capacity"
	rated := ops // what ops_per_s counts
	switch {
	case win.ingest != nil:
		ops, what = win.ingest.matched, "traces"
		rated, rateNote = ops, "first byte sent -> last verdict"
		rep.attempted += win.ingest.matched + win.ingest.rejected
		rep.failed += win.ingest.rejected
		if win.ingest.rejected > 0 {
			rep.problem("%d traces of a clean feed were rejected", win.ingest.rejected)
		}
	case len(updates) > 0:
		// The schedule offers a fixed rate, so counting what succeeded
		// would report the schedule. What the servers can lose is the
		// deadline: count the operations that met it.
		ops, what = len(queries)+len(updates), "queries+updates"
		rated = 0
		for _, s := range append(queries, updates...) {
			if s.done-s.due <= lateAfter {
				rated++
			}
		}
		rateNote = fmt.Sprintf("done within %v of due, of %d offered; the schedule caps it, so it can only fall", lateAfter, len(win.samples))
	}
	rep.add("ops_per_s", float64(rated)/win.seconds, "1/s", fmt.Sprintf("%d %s in %.3f s: %s", rated, what, win.seconds, rateNote))
	rep.add("cpu_ms_per_op", per(total["cpu_ms"], float64(ops)), "ms", fmt.Sprintf("%.0f ms of server-side CPU over %d %s", total["cpu_ms"], ops, what))
	rss, peak := 0.0, 0.0
	for _, s := range win.after {
		rss += s.proc.rssMB
		peak += s.proc.hwmMB
	}
	rep.add("rss_mb", rss, "MB", fmt.Sprintf("sum of VmRSS over %d server-side process(es) at window end", len(topo.procs)))
	if len(updates) > 0 {
		quantiles("update", updates)
	}
	if win.ingest != nil {
		rep.add("ingest_traces_per_s", float64(ops)/win.seconds, "1/s", "first byte sent -> last verdict; same as ops_per_s here")
	}

	// What the servers measured themselves.
	hits, misses := total["cover.hits"], total["cover.misses"]
	rep.add("engine.cover_hit_ratio", per(hits, hits+misses), "ratio", fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	if misses > 0 {
		rep.add("engine.cover_fill_ms_per_miss", total["cover.ms"]/misses, "ms", "engine cover time / misses")
	}
	if n := total["engine.queries"]; n > 0 {
		rep.add("engine.greedy_us_per_query", total["greedy.us"]/n, "us", "engine greedy time / engine queries")
	}
	if n := total["update_apply.count"]; n > 0 {
		rep.add("engine.update_apply_us", total.meanMs("update_apply")*1e3, "us", fmt.Sprintf("%.0f applies", n))
	}
	if n := total["wal.appends"]; n > 0 {
		rep.add("wal.bytes_per_update", total["wal.bytes"]/n, "B", fmt.Sprintf("%.0f appends", n))
		rep.add("wal.syncs_per_append", total["wal.syncs"]/n, "ratio", "")
		rep.add("wal.fsync_ms", total.meanMs("fsync"), "ms", "")
	}
	if n := total["batch.flushes"]; n > 0 {
		rep.add("server.avg_flush_size", total["batch.queries"]/n, "count", fmt.Sprintf("%.0f flushes", n))
	}
	queryReqs, queryMs := total["/v1/query.requests"], total["/v1/query.ms"]
	if queryReqs > 0 {
		rep.add("server.handler_ms_per_query", queryMs/queryReqs, "ms", "/v1/query route time / requests")
	}
	rep.add("server.rss_peak_mb", peak, "MB", "sum of VmHWM; set during the cold build, and it moves with GC timing")
	rep.add("server.mallocs_per_op", per(total["mallocs"], float64(ops)), "count", "heap allocations in the serving processes / "+what)
	gc := 0.0
	for _, s := range serving {
		gc += s.stats.Memory.GCCPUFraction
	}
	rep.add("server.gc_cpu_fraction", per(gc, float64(len(serving))), "ratio", "runtime GCCPUFraction at window end, mean over topsserve processes")

	if router != nil {
		rq := router["router.queries"]
		memberMs := per(total["/v1/shard/.ms"], total["/v1/shard/.requests"])
		rep.add("router.rounds_per_query", per(router["scatter.count"], rq), "count", fmt.Sprintf("%.0f scatter rounds over %.0f queries", router["scatter.count"], rq))
		rep.add("router.scatter_ms_per_round", router.meanMs("scatter"), "ms", "")
		rep.add("shard.member_ms_per_round", memberMs, "ms", fmt.Sprintf("/v1/shard/ route time / %.0f requests", total["/v1/shard/.requests"]))
		rep.add("router.net_ms_per_round", router.meanMs("scatter")-memberMs, "ms", "scatter - member route time: wire, codec and scheduling")
		rep.add("router.cpu_ms_per_query", per(router["cpu_ms"], rq), "ms", "")
		rep.add("shard.member_cpu_ms_per_query", per(total["cpu_ms"]-router["cpu_ms"], rq), "ms", "both members")
		rep.add("router.retries", router["router.retries"], "count", "")
		rep.add("router.failovers", router["router.failovr"], "count", "")
	}
	if win.ingest != nil {
		matched, rejected := total["ingest.matched"], total["ingest.reject"]
		rep.add("ingest.match_ms_per_trace", per(total["ingest.matchms"], matched), "ms", "matcher CPU summed over workers / matched traces")
		rep.add("ingest.apply_ms_per_window", per(total["ingest.applyms"], total["ingest.windows"]), "ms", "AddTrajectories time / windows")
		rep.add("ingest.matched_share", per(matched, matched+rejected), "ratio", "")
		rep.add("ingest.points_per_s", total["ingest.points"]/win.seconds, "1/s", "")
	}

	// The generator itself.
	all := make([]float64, len(queries))
	var rtts, elapsed []float64
	byEntry := make([][2][]float64, len(queryMix)) // latencies per mix entry: untraced, traced
	for i, s := range queries {
		all[i] = s.latencyMs()
		rtts = append(rtts, s.rttMs())
		elapsed = append(elapsed, s.elapsedMs)
		half := 0
		if s.traced {
			half = 1
		}
		byEntry[s.query][half] = append(byEntry[s.query][half], s.latencyMs())
	}
	sort.Float64s(all)
	rep.add("client.query_p99_ms", percentile(all, 0.99), "ms", "whole window, unsliced")
	rep.add("client.query_max_ms", percentile(all, 1), "ms", "")
	rep.add("client.net_ms_per_query", mean(rtts)-mean(elapsed), "ms", "client round trip - the answer's elapsed_ms")
	rep.add("client.cpu_share", win.clientMs/1e3/win.seconds, "ratio", "generator CPU / window; above 0.5 the generator competes with the servers")
	rep.add("client.host_steal_share", win.steal, "ratio", "CPU time the hypervisor withheld during the window; well above 0.01, the box was disturbed")
	if rep.workload == "serve_churn" || rep.workload == "ingest_stream" {
		late, lagP95 := clientLag(append(queries, updates...))
		rep.add("client.late_share", late, "ratio", fmt.Sprintf("operations done more than %v past due", lateAfter))
		rep.add("client.send_lag_p95_ms", lagP95, "ms", "how late the generator sent, p95")
	}
	if rep.traced {
		// Entry by entry, because the entries' latencies differ by more
		// than tracing could add and a median over the mixture would
		// mostly report which entries fell into which half.
		var overhead []float64
		for _, e := range byEntry {
			if len(e[0]) > 0 && len(e[1]) > 0 {
				overhead = append(overhead, (median(e[1])/median(e[0])-1)*100)
			}
		}
		rep.add("client.trace_overhead_pct", mean(overhead), "%", "median latency of the traced half of this window's queries vs the untraced half, per mix entry, averaged")
	}

	// Cross-check the client's books against the servers' own.
	var disagreements []string
	expect := func(what string, server float64, client int) {
		if server != float64(client) {
			disagreements = append(disagreements, fmt.Sprintf("%s: servers counted %.0f, the client %d", what, server, client))
		}
	}
	if router != nil {
		expect("router queries", router["router.queries"], sentQueries)
	} else {
		expect("engine queries", total["engine.queries"], sentQueries)
		expect("/v1/query requests", queryReqs, sentQueries)
		expect("/v1/update requests", total["/v1/update.requests"], sentUpdates)
		if win.ingest == nil {
			expect("WAL appends", total["wal.appends"], len(updates))
		} else {
			expect("ingest matched", total["ingest.matched"], win.ingest.matched)
		}
		// The route timer wraps the engine timer, so it may only be the
		// larger of the two, and by no more than the codec: one bucket of
		// the servers' own histograms (2^(1/4)) plus a scheduling allowance.
		if routeMs, elapsedMs := per(queryMs, queryReqs), mean(elapsed); routeMs < elapsedMs*0.999 || routeMs > elapsedMs*1.19+0.1 {
			disagreements = append(disagreements, fmt.Sprintf("/v1/query route time %.4f ms vs mean elapsed_ms %.4f ms", routeMs, elapsedMs))
		}
	}
	if median(elapsed) > median(rtts) {
		disagreements = append(disagreements, fmt.Sprintf("median elapsed_ms %.4f exceeds median client round trip %.4f", median(elapsed), median(rtts)))
	}
	rep.add("client.crosscheck_failures", float64(len(disagreements)), "count", "client counts and times vs /statsz and /metrics")
	for _, dis := range disagreements {
		rep.problems = append(rep.problems, "crosscheck: "+dis)
	}
}

// clientLag says how an open loop's generator kept its schedule: the share
// of operations that completed more than lateAfter past their due time,
// and the p95 of how long after its due time an operation was sent (ms).
func clientLag(samples []sample) (lateShare, sendLagP95 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	lag := make([]float64, len(samples))
	late := 0
	for i, s := range samples {
		lag[i] = float64(s.sent-s.due) / 1e6
		if s.done-s.due > lateAfter {
			late++
		}
	}
	sort.Float64s(lag)
	return float64(late) / float64(len(samples)), percentile(lag, 0.95)
}

// measureLadder adds the in-process rungs and the taxes between them.
func measureLadder(rep *report, lad ladderResult, tw *twin, indexMB float64) {
	us := func(name string) float64 { return lad.ns(name) / 1e3 }
	ms := func(name string) float64 { return lad.ns(name) / 1e6 }
	rep.add("tops.greedy_us", us("tops.greedy_us"), "us", "IncGreedyScratch on the memoized cover")
	rep.add("core.query_on_cover_us", us("core.query_on_cover_us"), "us", "QueryOnCoverPooledCtx")
	rep.add("core.cover_fill_ms", ms("core.cover_fill_ms"), "ms", "RepCoverCtx")
	rep.add("core.build_s", tw.buildS, "s", "core.Build of the twin")
	rep.add("core.index_mb", indexMB, "MB", "snapshot bytes")
	rep.add("engine.query_hot_us", us("engine.query_hot_us"), "us", "Engine.Query, cover cached")
	rep.add("engine.tax_us", us("engine.query_hot_us")-us("core.query_on_cover_us"), "us", "engine.query_hot_us - core.query_on_cover_us")
	rep.add("engine.query_cold_ms", ms("engine.query_cold_ms"), "ms", "first Engine.Query after a site flip")
	rep.add("engine.site_flip_us", us("engine.site_flip_us"), "us", "one DeleteSite or AddSite")
	rep.add("wal.append_interval_us", us("wal.append_interval_us"), "us", "Log.Append, -fsync interval")
	rep.add("wal.append_always_us", us("wal.append_always_us"), "us", "Log.Append, -fsync always")
	rep.add("shard.query_hot_us", us("shard.query_hot_us"), "us", "Sharded.Query over 2 in-process shards")
	rep.add("shard.tax_us", us("shard.query_hot_us")-us("engine.query_hot_us"), "us", "shard.query_hot_us - engine.query_hot_us")
	rep.add("shard.query_cold_ms", ms("shard.query_cold_ms"), "ms", "first Sharded.Query after a site flip")
	rep.add("server.handler_hot_us", us("server.handler_hot_us"), "us", "ServeHTTP on a recorder, unbatched")
	rep.add("server.codec_tax_us", us("server.handler_hot_us")-us("engine.query_hot_us"), "us", "server.handler_hot_us - engine.query_hot_us")
	rep.add("server.loopback_hot_us", us("server.loopback_hot_us"), "us", "the same handler over a loopback socket")
	rep.add("server.net_tax_us", us("server.loopback_hot_us")-us("server.handler_hot_us"), "us", "server.loopback_hot_us - server.handler_hot_us")
	rep.add("server.loopback_batched_ms", ms("server.loopback_batched_ms"), "ms", "default admission window, one client")
	rep.add("server.admission_wait_ms", ms("server.loopback_batched_ms")-ms("server.loopback_hot_us"), "ms", "server.loopback_batched_ms - server.loopback_hot_us")
	rep.add("router.query_hot_ms", ms("router.query_hot_ms"), "ms", "router handler over 2 loopback members")
	rep.add("router.tax_ms", ms("router.query_hot_ms")-ms("shard.query_hot_us"), "ms", "router.query_hot_ms - shard.query_hot_us")
	rep.add("mapmatch.match_ms", ms("mapmatch.match_ms"), "ms", "Matcher.Match per trace")
}
