package shard

import (
	"context"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/tops"
)

// Metamorphic properties of the sharded answer: it is an invariant of the
// decomposition. Shard count, partitioner, and the order of the greedy's
// parts are all implementation detail; any visible difference is a merge
// bug.

// queryGrid is a fixed probe battery spanning ladder instances and
// preference families.
func queryGrid() []core.QueryOptions {
	var qs []core.QueryOptions
	for _, tau := range []float64{0.4, 0.9, 1.7, 3.1} {
		qs = append(qs,
			core.QueryOptions{K: 1, Pref: tops.Binary(tau)},
			core.QueryOptions{K: 5, Pref: tops.Linear(tau)},
			core.QueryOptions{K: 9, Pref: tops.ConvexQuadratic(tau)},
		)
	}
	return qs
}

func TestShardCountInvariance(t *testing.T) {
	// One engine per shard count over identical datasets; every count must
	// produce the identical answer battery.
	counts := []int{1, 2, 4, 7}
	engines := make([]*Sharded, len(counts))
	for i, n := range counts {
		inst, _ := buildFixture(t, 401)
		engines[i] = shardedEngine(t, inst, n, HashPartitioner)
	}
	ctx := context.Background()
	for _, q := range queryGrid() {
		base, err := engines[0].Query(ctx, q)
		if err != nil {
			t.Fatalf("1-shard query %+v: %v", q, err)
		}
		for i := 1; i < len(counts); i++ {
			got, err := engines[i].Query(ctx, q)
			if err != nil {
				t.Fatalf("%d-shard query: %v", counts[i], err)
			}
			sameAnswer(t, "shard-count invariance", got, base)
		}
	}
}

func TestPartitionerInvariance(t *testing.T) {
	hashInst, _ := buildFixture(t, 409)
	gridInst, _ := buildFixture(t, 409)
	h := shardedEngine(t, hashInst, 4, HashPartitioner)
	g := shardedEngine(t, gridInst, 4, GridPartitioner)
	ctx := context.Background()
	for _, q := range queryGrid() {
		a, err := h.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "partitioner invariance", a, b)
	}
}

func TestPartOrderInvariance(t *testing.T) {
	// The greedy's reduce over the parts' winners is a strict total order,
	// so permuting the parts must not change any answer.
	inst, _ := buildFixture(t, 419)
	s := shardedEngine(t, inst, 4, HashPartitioner)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	var a answerScratch
	for _, q := range queryGrid() {
		base, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		p := core.InstanceForTau(s.ladder.TauMin, s.ladder.Gamma, s.ladder.Rungs, q.Pref.Tau)
		own, err := s.ownership(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		covers, err := memberCovers(ctx, s, p, q.Pref, own)
		if err != nil {
			t.Fatal(err)
		}
		if len(covers) < 3 {
			t.Fatalf("only %d owning shards: the permutations below would prove nothing", len(covers))
		}
		n := len(own.Winners)
		for trial := 0; trial < 4; trial++ {
			parts := a.partsOf(own, covers)
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			res, err := tops.IncGreedyParts(parts, n, tops.GreedyOptions{K: min(q.K, n)}, &a.greedy)
			if err != nil {
				t.Fatal(err)
			}
			got := &core.QueryResult{
				EstimatedUtility: res.Utility, EstimatedCovered: res.Covered,
				InstanceUsed: p, NumRepresentatives: n,
			}
			for _, gi := range res.Selected {
				got.Sites = append(got.Sites, own.Winners[gi].Node)
				got.SiteIDs = append(got.SiteIDs, s.sites.ID(own.Winners[gi].Node))
			}
			sameAnswer(t, "part-order invariance", got, base)
		}
	}
}

// TestShardedDisableCoverCache pins the caching policy pass-through: with
// the per-shard cover cache disabled, every scatter fills fresh (no cache
// contact at all) and the answers still match the cached configuration.
func TestShardedDisableCoverCache(t *testing.T) {
	cachedInst, _ := buildFixture(t, 439)
	uncachedInst, _ := buildFixture(t, 439)
	cached := shardedEngine(t, cachedInst, 3, HashPartitioner)
	uncached, err := Build(uncachedInst, Options{
		Shards: 3, Build: fixtureBuild,
		Engine: engine.Options{DisableCoverCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range queryGrid() {
		want, err := cached.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := uncached.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, "uncached sharded", got, want)
		}
	}
	st := memberStats(uncached)
	if st.CoverHits != 0 || st.CoverMisses != 0 || st.CoverEntries != 0 {
		t.Fatalf("uncached sharded engine touched the cover cache: %+v", st)
	}
}
