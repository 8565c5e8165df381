package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// buildFixture generates a small deterministic dataset and one NETCLUS
// index over it. Generation is seeded, so two calls with the same seed
// yield independent but identical instances — which the invalidation tests
// rely on to compare a served index against a mirror.
func buildFixture(t testing.TB, seed int64) (*core.Index, *tops.Instance, *gen.City) {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 500, SpanKm: 10, Jitter: 0.2,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 60, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 120, Seed: seed + 2})
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
	return idx, inst, city
}

// extraTrajectories generates trajectories over the same city that are not
// part of the fixture store, for insertion during update tests.
func extraTrajectories(t testing.TB, city *gen.City, n int, seed int64) []*trajectory.Trajectory {
	t.Helper()
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*trajectory.Trajectory, 0, n)
	store.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) {
		out = append(out, tr)
	})
	return out
}

func sameResult(t *testing.T, a, b *core.QueryResult, label string) {
	t.Helper()
	if math.Abs(a.EstimatedUtility-b.EstimatedUtility) > 1e-9 {
		t.Fatalf("%s: utility %v vs %v", label, a.EstimatedUtility, b.EstimatedUtility)
	}
	if a.EstimatedCovered != b.EstimatedCovered {
		t.Fatalf("%s: covered %d vs %d", label, a.EstimatedCovered, b.EstimatedCovered)
	}
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("%s: %d vs %d sites", label, len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("%s: site %d differs: %d vs %d", label, i, a.Sites[i], b.Sites[i])
		}
	}
}

func TestQueryMatchesCoreAndHitsCache(t *testing.T) {
	idx, _, _ := buildFixture(t, 901)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	taus := []float64{0.4, 0.8, 1.6}
	for _, tau := range taus {
		want, err := idx.QueryCtx(context.Background(), core.QueryOptions{K: 5, Pref: tops.Binary(tau)})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := eng.Query(context.Background(), core.QueryOptions{K: 5, Pref: tops.Binary(tau)})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want, "engine vs core")
		}
	}
	st := eng.Stats()
	if st.Queries != uint64(3*len(taus)) {
		t.Fatalf("query count %d", st.Queries)
	}
	// Distinct (instance, ψ) pairs miss once each; repeats must hit. Two τ
	// may share a ladder instance but not a fingerprint, so misses equal
	// the distinct τ count.
	if st.CoverMisses != uint64(len(taus)) {
		t.Fatalf("cover misses %d, want %d", st.CoverMisses, len(taus))
	}
	if st.CoverHits != uint64(2*len(taus)) {
		t.Fatalf("cover hits %d, want %d", st.CoverHits, 2*len(taus))
	}
	if st.CoverEntries != len(taus) {
		t.Fatalf("cover entries %d", st.CoverEntries)
	}
	if st.CoverTime <= 0 || st.GreedyTime <= 0 {
		t.Fatalf("phase timings not recorded: %+v", st)
	}
}

func TestQueryBatchMatchesSingles(t *testing.T) {
	idx, _, _ := buildFixture(t, 907)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var qs []core.QueryOptions
	for _, tau := range []float64{0.4, 0.8, 1.6} {
		for _, k := range []int{1, 3, 5} {
			qs = append(qs, core.QueryOptions{K: k, Pref: tops.Binary(tau)})
			qs = append(qs, core.QueryOptions{K: k, Pref: tops.Linear(tau)})
		}
	}
	qs = append(qs, core.QueryOptions{K: 0, Pref: tops.Binary(0.8)}) // invalid
	items := eng.QueryBatch(context.Background(), qs)
	if len(items) != len(qs) {
		t.Fatalf("item count %d != %d", len(items), len(qs))
	}
	for i, q := range qs {
		if q.K <= 0 {
			if items[i].Err == nil {
				t.Fatalf("invalid query %d accepted", i)
			}
			continue
		}
		if items[i].Err != nil {
			t.Fatalf("query %d: %v", i, items[i].Err)
		}
		want, err := idx.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, items[i].Result, want, "batch vs core")
	}
	st := eng.Stats()
	if st.Batches != 1 || st.BatchQueries != uint64(len(qs)-1) {
		t.Fatalf("batch counters: %+v", st)
	}
	// 6 distinct (τ, ψ) covers serve 18 valid queries: the grouping must
	// not rebuild per query.
	if st.CoverMisses != 6 {
		t.Fatalf("cover misses %d, want 6", st.CoverMisses)
	}
}

// applyMutations runs a fixed update sequence against an engine (locked) or
// a bare index, so a served index and a mirror can reach the same state.
type mutator interface {
	AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error)
	DeleteTrajectories(ids []trajectory.ID) error
	AddSite(v roadnet.NodeID) error
	DeleteSite(v roadnet.NodeID) error
}

func applyMutations(t testing.TB, m mutator, inst *tops.Instance, extra []*trajectory.Trajectory) {
	t.Helper()
	applyTrajectoryMutations(t, m, extra)
	applySiteMutations(t, m, inst)
}

// applyTrajectoryMutations is the trajectory half of applyMutations.
func applyTrajectoryMutations(t testing.TB, m mutator, extra []*trajectory.Trajectory) {
	t.Helper()
	ids, err := m.AddTrajectories(extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTrajectories([]trajectory.ID{0, 3, ids[0]}); err != nil {
		t.Fatal(err)
	}
}

// applySiteMutations is the site half of applyMutations.
func applySiteMutations(t testing.TB, m mutator, inst *tops.Instance) {
	t.Helper()
	// Delete an existing site, then register a fresh one.
	if err := m.DeleteSite(inst.Sites[7]); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < inst.G.NumNodes(); v++ {
		node := roadnet.NodeID(v)
		isSite := false
		for _, s := range inst.Sites {
			if s == node {
				isSite = true
				break
			}
		}
		if !isSite {
			if err := m.AddSite(node); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
}

func TestInvalidationMatchesColdIndex(t *testing.T) {
	// Identical twin fixtures; one served (and cached) through an engine,
	// one mutated bare and always queried cold. Trajectory ops keep every
	// cached cover, and the next lookup of each patches it without sweeping
	// a row; after the site ops too, the cached engine answers must equal
	// the cold ones.
	idx, inst, city := buildFixture(t, 911)
	mirrorIdx, mirrorInst, _ := buildFixture(t, 911)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid := []core.QueryOptions{
		{K: 5, Pref: tops.Binary(0.4)},
		{K: 5, Pref: tops.Binary(0.8)},
		{K: 3, Pref: tops.Linear(1.6)},
	}
	// Warm the cache pre-mutation.
	for _, q := range grid {
		if _, err := eng.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	checkGrid := func(label string) {
		t.Helper()
		for _, q := range grid {
			got, err := eng.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mirrorIdx.QueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got.EstimatedUtility != want.EstimatedUtility {
				t.Fatalf("%s: utility %v, cold index %v", label, got.EstimatedUtility, want.EstimatedUtility)
			}
			sameResult(t, got, want, label)
		}
	}

	extra := extraTrajectories(t, city, 10, 99)
	applyTrajectoryMutations(t, eng, extra)
	applyTrajectoryMutations(t, mirrorIdx, extra)
	before := eng.Stats()
	if before.CoverEntries != len(grid) {
		t.Fatalf("trajectory ops left %d cached covers, want all %d", before.CoverEntries, len(grid))
	}
	checkGrid("after trajectory ops")
	after := eng.Stats()
	if after.CoverMisses != before.CoverMisses || after.CoverRowsSwept != before.CoverRowsSwept ||
		after.CoverRevalidated != before.CoverRevalidated+uint64(len(grid)) {
		t.Fatalf("after trajectory ops: misses %d -> %d, rows swept %d -> %d, revalidated %d -> %d; want one patch per cover sweeping no row",
			before.CoverMisses, after.CoverMisses, before.CoverRowsSwept, after.CoverRowsSwept, before.CoverRevalidated, after.CoverRevalidated)
	}

	applySiteMutations(t, eng, inst)
	applySiteMutations(t, mirrorIdx, mirrorInst)
	checkGrid("after site ops")
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	// Race-detector stress: readers hammer Query/QueryBatch while one
	// writer applies a fixed mutation sequence. Afterwards the engine must
	// agree with a mirror index that saw the same sequence sequentially.
	idx, inst, city := buildFixture(t, 917)
	mirrorIdx, mirrorInst, _ := buildFixture(t, 917)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	taus := []float64{0.4, 0.8, 1.2, 1.6}
	done := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				tau := taus[(r+i)%len(taus)]
				if i%3 == 0 {
					items := eng.QueryBatch(context.Background(), []core.QueryOptions{
						{K: 2, Pref: tops.Binary(tau)},
						{K: 4, Pref: tops.Binary(tau)},
					})
					for _, it := range items {
						if it.Err != nil {
							errCh <- it.Err
							return
						}
					}
				} else if _, err := eng.Query(context.Background(), core.QueryOptions{K: 3, Pref: tops.Binary(tau)}); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	extra := extraTrajectories(t, city, 10, 131)
	applyMutations(t, eng, inst, extra)
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	applyMutations(t, mirrorIdx, mirrorInst, extra)
	for _, tau := range taus {
		got, err := eng.Query(context.Background(), core.QueryOptions{K: 5, Pref: tops.Binary(tau)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mirrorIdx.QueryCtx(context.Background(), core.QueryOptions{K: 5, Pref: tops.Binary(tau)})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, got, want, "post-churn")
	}
}

func TestDisableCoverCache(t *testing.T) {
	idx, _, _ := buildFixture(t, 919)
	eng, err := New(idx, Options{DisableCoverCache: true})
	if err != nil {
		t.Fatal(err)
	}
	q := core.QueryOptions{K: 5, Pref: tops.Binary(0.8)}
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.CoverHits != 0 || st.CoverMisses != 0 || st.CoverEntries != 0 {
		t.Fatalf("uncached engine touched the cover cache: %+v", st)
	}
}
