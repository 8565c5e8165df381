package shard

import (
	"context"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// The shard-differential oracle: for random (k, ψ, τ) draws and random §6
// update sequences, the sharded engine's selected sites, dense site ids,
// and estimated utilities must EXACTLY (bit-for-bit) match a single-shard
// engine that absorbed the same workload — across shard counts,
// partitioners, the distributed-greedy path, the merged-cover fallback
// path, and the batch path. This extends the engine-level differential
// oracle (internal/engine/oracle_test.go) one layer up: the engine oracle
// proves the single-shard answer against brute force; this suite proves the
// scatter-gather answer against the single-shard engine.

// checkDraw compares one draw across every query path.
func checkDraw(t *testing.T, ref *engine.Engine, s *Sharded, k int, pref tops.Preference) {
	t.Helper()
	ctx := context.Background()
	q := core.QueryOptions{K: k, Pref: pref}
	want, err := ref.Query(ctx, q)
	if err != nil {
		t.Fatalf("reference query (k=%d, ψ=%s, τ=%.3f): %v", k, pref.Name, pref.Tau, err)
	}
	got, err := s.Query(ctx, q)
	if err != nil {
		t.Fatalf("sharded query (k=%d, ψ=%s, τ=%.3f): %v", k, pref.Name, pref.Tau, err)
	}
	sameAnswer(t, "distributed greedy", got, want)

	// The merged-cover fallback path must agree as well; lazy greedy
	// (CELF) is a different traversal of the same submodular maximization,
	// so it exercises the merged CoverSets' SC lists and weights too.
	lazyQ := q
	lazyQ.Greedy.Lazy = true
	wantLazy, err := ref.Query(ctx, lazyQ)
	if err != nil {
		t.Fatal(err)
	}
	gotLazy, err := s.Query(ctx, lazyQ)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "merged-cover lazy", gotLazy, wantLazy)
}

// checkTraffic closes a scripted workload with the failure kinds — one
// canceled query, one k = 0 batch item, one epoch — and asserts that the two
// engines, having served the same calls, report the same traffic: every
// Stats field but the cover-cache counters and phase times, which
// legitimately differ (a sharded query touches one cover cache per owning
// shard).
func checkTraffic(t *testing.T, ref *engine.Engine, s *Sharded) {
	t.Helper()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	q := core.QueryOptions{K: 3, Pref: tops.Binary(0.8)}
	bad := []core.QueryOptions{{K: 0, Pref: tops.Binary(0.8)}}
	for name, eng := range map[string]interface {
		Query(context.Context, core.QueryOptions) (*core.QueryResult, error)
		QueryBatch(context.Context, []core.QueryOptions) []engine.BatchItem
		BeginEpoch(uint64) error
	}{"reference": ref, "sharded": s} {
		if _, err := eng.Query(canceled, q); err != context.Canceled {
			t.Fatalf("%s: canceled query returned %v", name, err)
		}
		if items := eng.QueryBatch(context.Background(), bad); items[0].Err == nil {
			t.Fatalf("%s: k = 0 batch item accepted", name)
		}
		if err := eng.BeginEpoch(3); err != nil {
			t.Fatalf("%s: BeginEpoch: %v", name, err)
		}
	}
	traffic := func(st engine.Stats) engine.Stats {
		st.CoverHits, st.CoverMisses, st.CoverRevalidated, st.CoverRowsSwept, st.CoverEntries = 0, 0, 0, 0, 0
		st.CoverTime, st.GreedyTime = 0, 0
		return st
	}
	want, got := traffic(ref.Stats()), traffic(s.Stats())
	if got != want {
		t.Fatalf("traffic counters diverged:\nsharded   %+v\nreference %+v", got, want)
	}
	if want.Errors < 2 || want.Canceled < 1 || want.Epoch != 3 {
		t.Fatalf("script did not exercise the counters: %+v", want)
	}
}

func TestShardedDifferentialOracle(t *testing.T) {
	seeds := []int64{311, 331}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, cfg := range []struct {
			shards      int
			partitioner string
		}{
			{2, HashPartitioner},
			{4, HashPartitioner},
			{3, GridPartitioner},
		} {
			if testing.Short() && cfg.shards == 3 {
				continue
			}
			refInst, city := buildFixture(t, seed)
			shInst, _ := buildFixture(t, seed)
			ref := singleEngine(t, refInst)
			s := shardedEngine(t, shInst, cfg.shards, cfg.partitioner)

			rng := rand.New(rand.NewSource(seed*29 + int64(cfg.shards)))
			extras := extraTrajectories(t, city, 24, seed+901)

			rounds, draws := 3, 5
			if testing.Short() {
				rounds, draws = 2, 3
			}
			for round := 0; round < rounds; round++ {
				for d := 0; d < draws; d++ {
					k := 1 + rng.Intn(12)
					checkDraw(t, ref, s, k, drawPref(rng))
				}
				if round == rounds-1 {
					break
				}
				extras = applyRandomUpdates(t, ref, s, refInst, rng, extras)
			}
			checkTraffic(t, ref, s)
			if st := s.Stats(); st.Queries == 0 || st.Updates == 0 {
				t.Fatalf("script served no queries or no updates: %+v", st)
			}
		}
	}
}

// applyRandomUpdates drives one random §6 mutation sequence through BOTH
// engines: site add/delete (exercising swap-remove mirroring, ownership
// invalidation, and representative takeover inside the owning shard) and
// trajectory add/delete (exercising the broadcast path and per-shard TL
// surgery). refInst tracks the reference engine's live site set (core
// mutates it in place).
func applyRandomUpdates(t *testing.T, ref *engine.Engine, s *Sharded, refInst *tops.Instance, rng *rand.Rand, extras []*trajectory.Trajectory) []*trajectory.Trajectory {
	t.Helper()
	g := refInst.G
	for op := 0; op < 12; op++ {
		switch rng.Intn(5) {
		case 0: // add one site
			if v, ok := nonSiteNode(g, refInst, rng); ok {
				if err := ref.AddSite(v); err != nil {
					t.Fatalf("ref AddSite(%d): %v", v, err)
				}
				if err := s.AddSite(v); err != nil {
					t.Fatalf("sharded AddSite(%d): %v", v, err)
				}
			}
		case 1: // delete a random site, keeping a healthy pool
			if len(refInst.Sites) > 60 {
				v := refInst.Sites[rng.Intn(len(refInst.Sites))]
				if err := ref.DeleteSite(v); err != nil {
					t.Fatalf("ref DeleteSite(%d): %v", v, err)
				}
				if err := s.DeleteSite(v); err != nil {
					t.Fatalf("sharded DeleteSite(%d): %v", v, err)
				}
			}
		case 2: // batch-add two sites (routes to distinct shards sometimes)
			var nodes []roadnet.NodeID
			for len(nodes) < 2 {
				v, ok := nonSiteNode(g, refInst, rng)
				if !ok {
					break
				}
				dup := false
				for _, u := range nodes {
					if u == v {
						dup = true
					}
				}
				if !dup {
					nodes = append(nodes, v)
				}
			}
			if len(nodes) == 2 {
				if err := ref.AddSites(nodes); err != nil {
					t.Fatalf("ref AddSites: %v", err)
				}
				if err := s.AddSites(nodes); err != nil {
					t.Fatalf("sharded AddSites: %v", err)
				}
			}
		case 3: // ingest a fresh trajectory
			if len(extras) > 0 {
				tr := extras[0]
				extras = extras[1:]
				rid, err := ref.AddTrajectory(tr)
				if err != nil {
					t.Fatalf("ref AddTrajectory: %v", err)
				}
				sid, err := s.AddTrajectory(tr)
				if err != nil {
					t.Fatalf("sharded AddTrajectory: %v", err)
				}
				if rid != sid {
					t.Fatalf("trajectory id diverged: ref %d, sharded %d", rid, sid)
				}
			}
		default: // delete a random live trajectory (dead draws are no-ops)
			tid := trajectory.ID(rng.Intn(refInst.M()))
			errRef := ref.DeleteTrajectory(tid)
			errSh := s.DeleteTrajectory(tid)
			if (errRef == nil) != (errSh == nil) {
				t.Fatalf("DeleteTrajectory(%d) diverged: ref %v, sharded %v", tid, errRef, errSh)
			}
		}
	}
	return extras
}

// TestShardedBatchMatchesReference runs a mixed batch through both engines'
// QueryBatch and compares item by item.
func TestShardedBatchMatchesReference(t *testing.T) {
	refInst, _ := buildFixture(t, 347)
	shInst, _ := buildFixture(t, 347)
	ref := singleEngine(t, refInst)
	s := shardedEngine(t, shInst, 4, HashPartitioner)

	var qs []core.QueryOptions
	for _, tau := range []float64{0.4, 0.8, 1.6} {
		for _, k := range []int{1, 3, 7} {
			qs = append(qs, core.QueryOptions{K: k, Pref: tops.Binary(tau)})
			qs = append(qs, core.QueryOptions{K: k, Pref: tops.Linear(tau)})
		}
	}
	qs = append(qs, core.QueryOptions{K: 0, Pref: tops.Binary(0.8)}) // invalid

	ctx := context.Background()
	wantItems := ref.QueryBatch(ctx, qs)
	gotItems := s.QueryBatch(ctx, qs)
	if len(gotItems) != len(qs) || len(wantItems) != len(qs) {
		t.Fatalf("item counts: got %d want %d over %d queries", len(gotItems), len(wantItems), len(qs))
	}
	for i := range qs {
		if (gotItems[i].Err == nil) != (wantItems[i].Err == nil) {
			t.Fatalf("item %d error divergence: sharded %v, reference %v", i, gotItems[i].Err, wantItems[i].Err)
		}
		if gotItems[i].Err == nil {
			sameAnswer(t, "batch item", gotItems[i].Result, wantItems[i].Result)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchQueries != uint64(len(qs)-1) {
		t.Fatalf("batch counters: %+v", st)
	}
	checkTraffic(t, ref, s)
}

// TestShardedExoticModes pins the merged-cover fallback against the
// reference engine for the query modes that carry extra greedy state.
func TestShardedExoticModes(t *testing.T) {
	refInst, _ := buildFixture(t, 353)
	shInst, _ := buildFixture(t, 353)
	ref := singleEngine(t, refInst)
	s := shardedEngine(t, shInst, 3, HashPartitioner)
	ctx := context.Background()

	for _, q := range []core.QueryOptions{
		{K: 5, Pref: tops.Binary(0.8), UseFM: true, F: 12, Seed: 99},
		{K: 4, Pref: tops.Linear(1.6), Greedy: tops.GreedyOptions{Lazy: true}},
		{K: 3, Pref: tops.Binary(1.2), Greedy: tops.GreedyOptions{InitialSites: []tops.SiteID{0, 2}}},
		{K: 1, Pref: tops.Binary(2.4), Greedy: tops.GreedyOptions{TargetCoverage: 0.5}},
	} {
		want, errRef := ref.Query(ctx, q)
		got, errSh := s.Query(ctx, q)
		if (errRef == nil) != (errSh == nil) {
			t.Fatalf("mode %+v error divergence: ref %v, sharded %v", q, errRef, errSh)
		}
		if errRef == nil {
			sameAnswer(t, "exotic mode", got, want)
		}
	}
}
