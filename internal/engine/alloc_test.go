package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"netclus/internal/core"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// allocFixture is a small index for the allocation-regression tests: big
// enough to exercise a multi-round greedy, small enough to build in
// milliseconds.
func allocFixture(t *testing.T) *core.Index {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 400, SpanKm: 8, Jitter: 0.2, Seed: 611,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 150, Seed: 612})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 120, Seed: 613})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.Build(inst, core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// bystander finds a node that is not a site and, added as one, would not
// displace its cluster's representative on the rung serving tau: a strictly
// farther member of a cluster that has one.
func bystander(t testing.TB, idx *core.Index, tau float64) roadnet.NodeID {
	t.Helper()
	inst := idx.TopsInstance()
	for _, cl := range idx.Instances[idx.InstanceFor(tau)].Clusters {
		for i, v := range cl.Members {
			if _, isSite := inst.SiteIDOf(v); !isSite && cl.MemberDr[i] > cl.RepDr {
				return v
			}
		}
	}
	t.Fatalf("no non-displacing node on the rung of tau=%v", tau)
	return roadnet.InvalidNode
}

// TestCachedQueryZeroAllocs is the hot-path allocation gate: once the cover
// is memoized and the scratch pools are warm, Engine.Query must allocate
// nothing — the whole greedy phase runs on pooled buffers. A regression
// here (a stray fmt.Sprintf in the cache key, a per-query slice) fails the
// test with the measured count. The second case adds a site that displaces
// no representative of the queried rung between warm-up and measurement:
// the memoized cover must keep serving as a plain hit (core.coverFor,
// step 1), not be dropped, refilled or revalidated per query.
func TestCachedQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector's instrumentation allocates on its own (shadow
		// state for sync.Pool traffic), so an exact-zero gate can't hold
		// under -race. The non-race CI lanes enforce it.
		t.Skip("allocation counts are not exact under -race")
	}
	for _, tc := range []struct {
		name      string
		tau       float64
		bystander bool
	}{
		{"steady", 0.8, false},
		{"after_bystander_add", 2.4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := allocFixture(t)
			eng, err := New(idx, Options{})
			if err != nil {
				t.Fatal(err)
			}
			q := core.QueryOptions{K: 5, Pref: tops.Binary(tc.tau)}
			ctx := context.Background()
			// Warm the cover cache and the scratch pools, and verify the path works.
			for i := 0; i < 3; i++ {
				res, err := eng.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Sites) == 0 {
					t.Fatal("warm-up query returned no sites")
				}
				res.Release()
			}
			if tc.bystander {
				if err := eng.AddSite(bystander(t, idx, tc.tau)); err != nil {
					t.Fatal(err)
				}
			}
			// Flush sync.Pool victim caches so the measurement loop starts from
			// steady state (a Get that repopulates from the victim cache is free,
			// but a Get after two GCs re-allocates once — that one-time cost must
			// land before the measured runs, not inside them).
			runtime.GC()
			runtime.GC()
			before := eng.Stats()
			res, err := eng.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
			avg := testing.AllocsPerRun(100, func() {
				r, err := eng.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				r.Release()
			})
			if avg != 0 {
				t.Fatalf("cached Engine.Query allocates %.2f objects per call, want 0", avg)
			}
			if after := eng.Stats(); after.CoverMisses != before.CoverMisses || after.CoverRevalidated != before.CoverRevalidated {
				t.Fatalf("measured queries were not plain cover hits: misses %d -> %d, revalidated %d -> %d",
					before.CoverMisses, after.CoverMisses, before.CoverRevalidated, after.CoverRevalidated)
			}
		})
	}
}

// TestPoolingDifferential is the pooling-abuse oracle: many goroutines
// hammer the pooled engine with a mixed workload — Releasing results while
// other queries are mid-flight, double-Releasing, or never Releasing — and
// every answer must be bit-identical to the unpooled reference engine
// (DisablePooling) serving the same index. Run with -race this also proves
// the pools are data-race-free under concurrent recycling.
func TestPoolingDifferential(t *testing.T) {
	idx := allocFixture(t)
	pooled, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reference, err := New(idx, Options{DisablePooling: true})
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		q       core.QueryOptions
		sites   []int64
		siteIDs []int32
		util    float64
		covered int
	}
	taus := []float64{0.4, 0.8, 1.6, 3.2}
	var wants []want
	ctx := context.Background()
	for _, tau := range taus {
		for _, k := range []int{1, 3, 7} {
			q := core.QueryOptions{K: k, Pref: tops.Binary(tau)}
			res, err := reference.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			w := want{q: q, util: res.EstimatedUtility, covered: res.EstimatedCovered}
			for _, v := range res.Sites {
				w.sites = append(w.sites, int64(v))
			}
			for _, v := range res.SiteIDs {
				w.siteIDs = append(w.siteIDs, int32(v))
			}
			// Release on an unpooled result must be a harmless no-op.
			res.Release()
			res.Release()
			wants = append(wants, w)
		}
	}

	const goroutines = 8
	const rounds = 50
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			var err error
			defer func() { errc <- err }()
			for r := 0; r < rounds; r++ {
				w := wants[(g*rounds+r)%len(wants)]
				res, qerr := pooled.Query(ctx, w.q)
				if qerr != nil {
					err = qerr
					return
				}
				if res.EstimatedUtility != w.util || res.EstimatedCovered != w.covered ||
					len(res.Sites) != len(w.sites) {
					err = errMismatch(w.q, res, w.util, w.covered)
					return
				}
				for i := range w.sites {
					if int64(res.Sites[i]) != w.sites[i] || int32(res.SiteIDs[i]) != w.siteIDs[i] {
						err = errMismatch(w.q, res, w.util, w.covered)
						return
					}
				}
				if r%3 != 2 {
					res.Release()
				}
				// Every third result is abandoned to the GC instead; the
				// pool must not care.
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func errMismatch(q core.QueryOptions, res *core.QueryResult, util float64, covered int) error {
	return fmt.Errorf("pooled answer diverged from unpooled reference for k=%d τ=%v: got util=%v covered=%d sites=%d, want util=%v covered=%d",
		q.K, q.Pref.Tau, res.EstimatedUtility, res.EstimatedCovered, len(res.Sites), util, covered)
}
