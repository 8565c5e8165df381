package main

import (
	"math"
	"strings"
	"testing"
)

// Golden scrapes, trimmed from a live topsserve primary and a topsrouter:
// the same shapes, fewer lines.
const goldenStatszBefore = `{"uptime_seconds":4.1,"draining":false,
 "engine":{"queries":6,"batch_queries":1404,"batches":702,"updates":0,"lsn":1,"epoch":1,"errors":0,
           "cover_hits":1180,"cover_misses":6,"cover_entries":6,"cover_time_ns":4100000,"greedy_time_ns":120000000},
 "routes":{"/v1/query":{"requests":1410,"errors_4xx":0,"errors_5xx":0,"total_ms":3500.5,"max_ms":9.1},
           "/v1/update":{"requests":0,"errors_4xx":0,"errors_5xx":0,"total_ms":0,"max_ms":0}},
 "batching":{"flushes":702,"coalesced_queries":1404,"max_flush_size":2,"avg_flush_size":2,"window_ms":2,"max_size":64},
 "ingest":{"traces_in":0,"matched":0,"rejected":0,"points":0,"batches":0,"match_ms":0,"apply_ms":0},
 "wal":{"head_lsn":1,"first_lsn":1,"segments":1,"size_bytes":41,"appends":1,"syncs":1,"appended_bytes":25,"fsync_policy":"interval"},
 "memory":{"heap_alloc_bytes":9000000,"total_alloc_bytes":90000000,"mallocs":500000,"num_gc":12,"gc_pause_total_ms":1.5,"gc_cpu_fraction":0.0125}}`

const goldenStatszAfter = `{"uptime_seconds":14.2,"draining":false,
 "engine":{"queries":6,"batch_queries":3204,"batches":1602,"updates":400,"lsn":401,"epoch":1,"errors":0,
           "cover_hits":2000,"cover_misses":986,"cover_entries":6,"cover_time_ns":704100000,"greedy_time_ns":264000000},
 "routes":{"/v1/query":{"requests":3210,"errors_4xx":0,"errors_5xx":0,"total_ms":8900.5,"max_ms":44.0},
           "/v1/update":{"requests":400,"errors_4xx":0,"errors_5xx":0,"total_ms":60,"max_ms":2.2}},
 "batching":{"flushes":2302,"coalesced_queries":3204,"max_flush_size":2,"avg_flush_size":1.39,"window_ms":2,"max_size":64},
 "wal":{"head_lsn":401,"first_lsn":1,"segments":1,"size_bytes":13241,"appends":401,"syncs":101,"appended_bytes":10025,"fsync_policy":"interval"},
 "memory":{"heap_alloc_bytes":9500000,"total_alloc_bytes":190000000,"mallocs":680000,"num_gc":30,"gc_pause_total_ms":3.5,"gc_cpu_fraction":0.0187}}`

const goldenRouterStatsz = `{"shards":2,"partitioner":"hash","uptime_seconds":12.5,"queries":3176,"batches":0,"updates":0,
 "retries":1,"failovers":0,"errors":0,"sites":2000,"ownership_instances":[1,2,4,6],
 "topology":[{"shard":0,"urls":["http://127.0.0.1:1"],"active":0,"active_url":"http://127.0.0.1:1"}]}`

const goldenMetricsBefore = `# HELP netclus_build_info Build identity; value is always 1.
# TYPE netclus_build_info gauge
netclus_build_info{role="primary",go_version="go1.24.0",version="(devel)",revision=""} 1
# TYPE netclus_wal_appends_total counter
netclus_wal_appends_total{role="primary"} 1
# TYPE netclus_ingest_stage_seconds histogram
netclus_ingest_stage_seconds_bucket{role="primary",stage="match",le="0.001"} 0
netclus_ingest_stage_seconds_bucket{role="primary",stage="match",le="+Inf"} 0
netclus_ingest_stage_seconds_sum{role="primary",stage="match"} 0
netclus_ingest_stage_seconds_count{role="primary",stage="match"} 0
netclus_ingest_stage_seconds_bucket{role="primary",stage="apply",le="+Inf"} 2
netclus_ingest_stage_seconds_sum{role="primary",stage="apply"} 0.5
netclus_ingest_stage_seconds_count{role="primary",stage="apply"} 2
# TYPE netclus_wal_fsync_seconds histogram
netclus_wal_fsync_seconds_bucket{role="primary",le="1.024e-06"} 0
netclus_wal_fsync_seconds_bucket{role="primary",le="+Inf"} 1
netclus_wal_fsync_seconds_sum{role="primary"} 0.0005
netclus_wal_fsync_seconds_count{role="primary"} 1
`

const goldenMetricsAfter = `netclus_wal_appends_total{role="primary"} 401
netclus_ingest_stage_seconds_sum{role="primary",stage="match"} 16
netclus_ingest_stage_seconds_count{role="primary",stage="match"} 1600
netclus_ingest_stage_seconds_sum{role="primary",stage="apply"} 0.6
netclus_ingest_stage_seconds_count{role="primary",stage="apply"} 27
netclus_wal_fsync_seconds_sum{role="primary"} 0.0505
netclus_wal_fsync_seconds_count{role="primary"} 101
`

// The router exposes its histograms without a label besides the base one.
const goldenRouterMetrics = `netclus_router_queries_total{role="router"} 3176
netclus_router_scatter_seconds_bucket{role="router",le="0.001024"} 12000
netclus_router_scatter_seconds_bucket{role="router",le="+Inf"} 18527
netclus_router_scatter_seconds_sum{role="router"} 18.527
netclus_router_scatter_seconds_count{role="router"} 18527
`

// goldenScrape parses one golden /statsz and /metrics pair the way
// scrapeProc does a live one.
func goldenScrape(t *testing.T, statsJSON, exposition string) *scrape {
	t.Helper()
	st, err := parseStatsz(strings.NewReader(statsJSON))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	return &scrape{stats: st, metrics: m}
}

// The window's change goes through counters().minus(), as in measure.
func TestScrapeDeltas(t *testing.T) {
	before := goldenScrape(t, goldenStatszBefore, goldenMetricsBefore)
	after := goldenScrape(t, goldenStatszAfter, goldenMetricsAfter)
	d := after.counters().minus(before.counters())
	for name, want := range map[string]float64{
		"engine.queries":      1800,
		"cover.misses":        980,
		"cover.ms":            700,
		"/v1/query.requests":  1800,
		"/v1/query.ms":        5400,
		"/v1/update.requests": 400,
		"wal.appends":         400,
		"wal.bytes":           10000,
		"batch.flushes":       1600,
		"fsync.count":         100,
		// A block the second scrape does not carry reads as zero.
		"ingest.matched": 0,
	} {
		if got := d[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("delta of %s = %v, want %v", name, got, want)
		}
	}
	if got := d.meanMs("fsync"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("mean fsync over the window = %v ms, want 0.5", got)
	}
	if got := d.meanMs("update_apply"); got != 0 {
		t.Errorf("mean of a histogram without observations = %v, want 0", got)
	}
	if after.stats.Engine.LSN != 401 || after.stats.Memory.GCCPUFraction != 0.0187 {
		t.Errorf("gauges misread: lsn %d, gc %v", after.stats.Engine.LSN, after.stats.Memory.GCCPUFraction)
	}
	if got := before.metrics[`netclus_wal_appends_total{role="primary"}`]; got != 1 {
		t.Errorf("counter sample = %v, want 1", got)
	}

	router := goldenScrape(t, goldenRouterStatsz, goldenRouterMetrics).counters()
	if router["router.queries"] != 3176 || router["router.retries"] != 1 || router["router.failovr"] != 0 {
		t.Errorf("router counters misread: %v", router)
	}
	if router["scatter.count"] != 18527 || math.Abs(router.meanMs("scatter")-1) > 1e-9 {
		t.Errorf("router scatter histogram = %v observations of %v ms, want 18527 of 1 ms", router["scatter.count"], router.meanMs("scatter"))
	}
}

func TestScrapeParsersRejectMalformedInput(t *testing.T) {
	if _, err := parseStatsz(strings.NewReader(`{"engine":`)); err == nil {
		t.Error("truncated /statsz parsed without error")
	}
	for _, bad := range []string{"netclus_x", "netclus_x{a=\"b\"} notanumber"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed exposition %q parsed without error", bad)
		}
	}
}

func TestParseProc(t *testing.T) {
	// The command name may itself contain spaces and parentheses.
	stat := "4242 (tops) serve (x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 1017 70 0 0 20 0 9 0 123456 1000000 8000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ticks, err := parseProcStatTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 1017+70 {
		t.Errorf("utime+stime = %d ticks, want %d", ticks, 1017+70)
	}
	if _, err := parseProcStatTicks("4242 (x) S 1"); err == nil {
		t.Error("short stat line parsed without error")
	}
	total, steal := parseHostTicks("cpu  1776770 0 202887 2082328 6722 0 44578 11491 0 0\ncpu0 885695 0 103437 1037749 4619 0 21333 5902 0 0\n")
	if steal != 11491 || total != 1776770+202887+2082328+6722+44578+11491 {
		t.Errorf("host ticks = %v total, %v steal", total, steal)
	}
	if total, steal := parseHostTicks("intr 1 2 3"); total != 0 || steal != 0 {
		t.Errorf("a stat file without a cpu line read as %v, %v", total, steal)
	}
	status := "Name:\ttopsserve\nVmPeak:\t 1300000 kB\nVmHWM:\t   45092 kB\nVmRSS:\t   32044 kB\nThreads:\t9\n"
	if got := parseStatusMB(status, "VmHWM:"); math.Abs(got-45092.0/1024) > 1e-9 {
		t.Errorf("VmHWM = %v MB", got)
	}
	if got := parseStatusMB(status, "VmRSS:"); math.Abs(got-32044.0/1024) > 1e-9 {
		t.Errorf("VmRSS = %v MB", got)
	}
	if got := parseStatusMB(status, "VmSwap:"); got != 0 {
		t.Errorf("absent field = %v, want 0", got)
	}
}
