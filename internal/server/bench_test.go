package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/tops"
)

// The ServeQPS benchmarks measure /v1/query end to end under many
// concurrent HTTP clients issuing the same class of query; every request
// is one direct Engine.Query call.
//
// The cached arm is what a default topsserve runs: the first request fills
// the cover and the cover cache's singleflight shares it with every other
// request in flight, so the arm times decode + greedy + encode. The uncached arm
// (DisableCoverCache, topsserve -no-cover-cache) makes every request pay its
// own §5.1 sweep; it is the slow, steady arm the CI gate calibrates against,
// not a model of update-heavy traffic — under updates the cache refills
// once per invalidation and serves hits in between.

var (
	benchOnce sync.Once
	benchIdx  *core.Index
)

// benchFixture is larger than the test fixture so one cover sweep is
// substantial next to the codec.
func benchFixture(b *testing.B) *core.Index {
	b.Helper()
	benchOnce.Do(func() {
		city, err := gen.GenerateCity(gen.CityConfig{
			Topology: gen.GridMesh, Nodes: 1200, SpanKm: 14, Jitter: 0.2,
			OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 971,
		})
		if err != nil {
			b.Fatal(err)
		}
		store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 400, Seed: 972})
		if err != nil {
			b.Fatal(err)
		}
		sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 400, Seed: 973})
		if err != nil {
			b.Fatal(err)
		}
		inst, err := tops.NewInstance(city.Graph, store, sites)
		if err != nil {
			b.Fatal(err)
		}
		benchIdx, err = core.Build(inst, core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4})
		if err != nil {
			b.Fatal(err)
		}
	})
	return benchIdx
}

func benchServeQPS(b *testing.B, engOpts engine.Options) {
	idx := benchFixture(b)
	eng, err := engine.New(idx, engOpts)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(eng, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}}
	defer client.CloseIdleConnections()

	body := []byte(`{"k":5,"tau":0.8,"timeout_ms":60000}`)
	// 64 closed-loop clients per core: far more in flight than cores, so
	// look-alike requests overlap and contend.
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "qps")
}

// BenchmarkServeQPS/cached is the arm CI gates, calibrated by /uncached
// (see BENCH_BASELINE.txt and EXPERIMENTS.md).
func BenchmarkServeQPS(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		benchServeQPS(b, engine.Options{DisableCoverCache: true})
	})
	b.Run("cached", func(b *testing.B) {
		benchServeQPS(b, engine.Options{})
	})
}
