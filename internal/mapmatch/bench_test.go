package mapmatch

import (
	"testing"
)

// BenchmarkMatch map-matches the benchmark's own ingest feed (ledgerFeed)
// on one reused Matcher; ms/trace is comparable with the ledger's
// ingest.match_ms_per_trace.
func BenchmarkMatch(b *testing.B) {
	g, traces := ledgerFeed(b, 200)
	m := NewMatcher(g, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(traces[i%len(traces)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/trace")
}

// TestMatchAllocs is the matcher's allocation gate, after
// TestCachedQueryZeroAllocs: once a Matcher's lattice and scratch have
// grown, matching a trace of the benchmark's ingest feed allocates only
// the returned trajectory — no map or slice per Dijkstra, lattice layer or
// A* call. The bound leaves room for a longer walk than the warm-up's.
func TestMatchAllocs(t *testing.T) {
	g, traces := ledgerFeed(t, 16)
	m := NewMatcher(g, Config{})
	for _, trace := range traces {
		if _, err := m.Match(trace); err != nil {
			t.Fatal(err)
		}
	}
	for i, trace := range traces {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.Match(trace); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("trace %d: %v allocations per Match, want at most 64", i, allocs)
		}
	}
}
