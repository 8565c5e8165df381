package engine

import (
	"context"
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
	return idx
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
