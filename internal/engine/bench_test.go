package engine

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"netclus/internal/core"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// benchIndex builds a mid-sized dataset once per benchmark binary: large
// enough that cover construction dominates an uncached query, as it does at
// city scale.
func benchIndex(b *testing.B) *core.Index {
	idx, _ := benchData(b)
	return idx
}

// benchData is benchIndex with the city it was built over.
func benchData(b *testing.B) (*core.Index, *gen.City) {
	b.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 2500, SpanKm: 14, Jitter: 0.2, Seed: 941,
	})
	if err != nil {
		b.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 800, Seed: 942})
	if err != nil {
		b.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 600, Seed: 943})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.Build(inst, core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4})
	if err != nil {
		b.Fatal(err)
	}
	return idx, city
}

// BenchmarkEngineQPS measures sustained concurrent mixed-τ query throughput
// through the engine, with the cover cache enabled (production path) and
// disabled (the paper's per-query RepCover). The cached arm is the
// zero-allocation hot path — memoized cover, pooled scratch — and
// cached_unpooled is its "before" reference (fresh buffers per query), so
// the pair measures what the data-layout rework and pooling buy.
// EXPERIMENTS.md records the measured numbers; .github CI gates ns/op
// regressions against BENCH_BASELINE.txt.
func BenchmarkEngineQPS(b *testing.B) {
	idx := benchIndex(b)
	taus := []float64{0.4, 0.8, 1.6, 2.4}
	run := func(b *testing.B, opts Options) {
		eng, err := New(idx, opts)
		if err != nil {
			b.Fatal(err)
		}
		var worker atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(worker.Add(1))
			for pb.Next() {
				q := core.QueryOptions{K: 5, Pref: tops.Binary(taus[i%len(taus)])}
				i++
				res, err := eng.Query(context.Background(), q)
				if err != nil {
					b.Error(err)
					return
				}
				res.Release()
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		st := eng.Stats()
		if !opts.DisableCoverCache && b.N > len(taus) && st.CoverHits == 0 {
			b.Fatalf("cached run recorded no cover hits: %+v", st)
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, Options{}) })
	b.Run("cached_unpooled", func(b *testing.B) { run(b, Options{DisablePooling: true}) })
	b.Run("uncached", func(b *testing.B) { run(b, Options{DisableCoverCache: true}) })
}

// BenchmarkCoverAfterSiteUpdate times ONE query right after EACH single site
// mutation (the mutation itself is outside the timer), on a mutation that
// does not net out — unlike the delete-and-re-add flips behind
// BenchmarkShardedQPS and the serve_churn workload, which a memoized cover
// merely revalidates against. moved_rep alternately deletes and re-adds the
// representative of one cluster of the queried rung, so every query finds
// exactly one row of its cover stale and patches it; bystander does the
// same with another site of that cluster, which moves nothing the cover
// was filled from (a plain hit); refill is moved_rep without the cover
// cache, what every site update used to cost. CI gates moved_rep
// calibrated by refill against BENCH_BASELINE.txt.
//
// The query is τ = 1.3: on the first rung of benchIndex whose clusters hold
// several sites (the one BenchmarkEngineQPS's τ = 1.6 runs on), and cached it
// costs what that benchmark's τ mix costs on average, so bystander reads
// against EngineQPS/cached directly.
func BenchmarkCoverAfterSiteUpdate(b *testing.B) {
	idx := benchIndex(b)
	q := core.QueryOptions{K: 5, Pref: tops.Binary(1.3)}
	// A cluster of the queried rung with two sites: its representative, and
	// a site strictly farther from the center.
	rep, other := roadnet.InvalidNode, roadnet.InvalidNode
	inst := idx.TopsInstance()
	for _, cl := range idx.Instances[idx.InstanceFor(q.Pref.Tau)].Clusters {
		for i, v := range cl.Members {
			if _, isSite := inst.SiteIDOf(v); isSite && cl.MemberDr[i] > cl.RepDr {
				rep, other = cl.Rep, v
			}
		}
		if rep != roadnet.InvalidNode {
			break
		}
	}
	if rep == roadnet.InvalidNode {
		b.Fatal("no cluster with two sites on the queried rung")
	}
	run := func(b *testing.B, opts Options, site roadnet.NodeID) {
		eng, err := New(idx, opts)
		if err != nil {
			b.Fatal(err)
		}
		query := func() {
			res, err := eng.Query(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
		query() // fill the cover before the first mutation
		present := true
		flip := func() {
			var err error
			if present {
				err = eng.DeleteSite(site)
			} else {
				err = eng.AddSite(site)
			}
			if err != nil {
				b.Fatal(err)
			}
			present = !present
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			flip()
			b.StartTimer()
			query()
		}
		b.StopTimer()
		if !present {
			flip() // leave the shared index as it was found
		}
	}
	b.Run("moved_rep", func(b *testing.B) { run(b, Options{}, rep) })
	b.Run("bystander", func(b *testing.B) { run(b, Options{}, other) })
	b.Run("refill", func(b *testing.B) { run(b, Options{DisableCoverCache: true}, rep) })
}

// BenchmarkCoverAfterTrajectoryWindow times one query per ladder rung right
// after EACH 64-trajectory ingest window (the window itself is outside the
// timer): the probe side of the ingest_stream workload. append keeps the
// cover cache, so every query finds its cover one window behind and appends
// the window's entries to it without sweeping a row; refill is the same
// without the cover cache, a cold fill per query — what each window cost
// every cached cover while trajectory ops emptied the cache. The feed is 16
// windows (1 024 trajectories) over the 800 base ones, as ingest_stream
// feeds 1 000 traces over 500; then the index is reloaded from a snapshot
// and every rung's cover filled again, outside the timer. CI gates append
// calibrated by refill against BENCH_BASELINE.txt.
func BenchmarkCoverAfterTrajectoryWindow(b *testing.B) {
	idx, city := benchData(b)
	var snap bytes.Buffer
	if _, err := idx.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	base := idx.TopsInstance()
	store, sites := base.Trajs.Clone(), slices.Clone(base.Sites)
	const window, windows = 64, 16
	feed := extraTrajectories(b, city, window*windows, 947)
	// One τ in the middle of each rung.
	tauMin, _ := idx.TauRange()
	var qs []core.QueryOptions
	for p := range idx.Instances {
		tau := tauMin * math.Pow(1+idx.Gamma(), float64(p)+0.5)
		qs = append(qs, core.QueryOptions{K: 5, Pref: tops.Binary(tau)})
	}
	run := func(b *testing.B, opts Options) {
		var eng *Engine
		queryAll := func() {
			for _, q := range qs {
				res, err := eng.Query(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
		}
		reset := func() {
			inst, err := tops.NewInstance(city.Graph, store.Clone(), slices.Clone(sites))
			if err != nil {
				b.Fatal(err)
			}
			loaded, err := core.ReadIndex(bytes.NewReader(snap.Bytes()), inst)
			if err != nil {
				b.Fatal(err)
			}
			if eng, err = New(loaded, opts); err != nil {
				b.Fatal(err)
			}
			queryAll()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := i % windows
			if w == 0 {
				reset()
			}
			if _, err := eng.AddTrajectories(feed[w*window : (w+1)*window]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			queryAll()
		}
		b.StopTimer()
		// The last engine's misses are the fills that warmed it.
		if st := eng.Stats(); !opts.DisableCoverCache && st.CoverMisses != uint64(len(qs)) {
			b.Fatalf("windows cost %d cover misses past the warm-up fills, want none", st.CoverMisses-uint64(len(qs)))
		}
	}
	b.Run("append", func(b *testing.B) { run(b, Options{}) })
	b.Run("refill", func(b *testing.B) { run(b, Options{DisableCoverCache: true}) })
}
