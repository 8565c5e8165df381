package core

import (
	"runtime"
	"testing"
	"time"

	"netclus/internal/gen"
	"netclus/internal/tops"
)

// buildSpeedupInstance is larger than the usual test city so the build has
// enough work for a timing comparison to be meaningful.
func buildSpeedupInstance(t testing.TB) *tops.Instance {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 1400, SpanKm: 14, Jitter: 0.2,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 97,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 150, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 300, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestParallelBuildSpeedup asserts the acceptance bar of the parallel build:
// on a machine with >= 4 usable cores, building with all workers is at least
// 2x faster than the sequential baseline. The ladder-wide |Λ(v)| sweep,
// most of the build, runs on every worker, and then the ladder rungs and
// their neighbor-list searches parallelize, so real scaling is well above
// 2x; the margin absorbs scheduler noise.
func TestParallelBuildSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("needs >= 4 usable cores, have %d", procs)
	}
	inst := buildSpeedupInstance(t)
	opts := Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4}
	measure := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		// Best-of-3 absorbs noisy-neighbor interference on shared CI
		// runners; the assertion gates on the machine's capability, not
		// on one quiet scheduling window.
		for run := 0; run < 3; run++ {
			o := opts
			o.Workers = workers
			t0 := time.Now()
			if _, err := Build(inst, o); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	seq := measure(1)
	par := measure(procs)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel(%d) %v, speedup %.2fx", seq, procs, par, speedup)
	if speedup < 2 {
		t.Errorf("parallel build speedup %.2fx below 2x on %d cores", speedup, procs)
	}
}

// TestBuildWorkersEquivalent pins the determinism contract on every machine
// (the byte-level version lives in snapshot_test.go): worker count must not
// change any query answer.
func TestBuildWorkersEquivalent(t *testing.T) {
	_, inst := buildTestIndex(t, 353, false)
	seqIdx, err := Build(inst, Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parIdx, err := Build(inst, Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.4, 0.8, 1.6, 3.2} {
		a, err := seqIdx.Query(QueryOptions{K: 5, Pref: tops.Binary(tau)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := parIdx.Query(QueryOptions{K: 5, Pref: tops.Binary(tau)})
		if err != nil {
			t.Fatal(err)
		}
		if a.EstimatedUtility != b.EstimatedUtility || len(a.Sites) != len(b.Sites) {
			t.Fatalf("τ=%v: sequential and parallel builds answer differently", tau)
		}
		for i := range a.Sites {
			if a.Sites[i] != b.Sites[i] {
				t.Fatalf("τ=%v: site %d differs between worker counts", tau, i)
			}
		}
	}
}
