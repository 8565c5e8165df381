package shard

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// The shard-differential oracle: for random (k, ψ, τ) draws and random §6
// update sequences, the sharded engine's selected sites, dense site ids,
// and estimated utilities must EXACTLY (bit-for-bit) match a single-shard
// engine that absorbed the same workload — across shard counts,
// partitioners, the distributed-greedy path and the merged-cover fallback
// path. This extends the engine-level differential
// oracle (internal/engine/oracle_test.go) one layer up: the engine oracle
// proves the single-shard answer against brute force; this suite proves the
// scatter-gather answer against the single-shard engine.

// checkDraw compares one draw through the distributed greedy.
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
}

// checkCanceled: a canceled query fails with the context's error on both
// engines.
func checkCanceled(t *testing.T, ref *engine.Engine, s *Sharded) {
	t.Helper()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	q := core.QueryOptions{K: 3, Pref: tops.Binary(0.8)}
	if _, err := ref.Query(canceled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("reference: canceled query returned %v", err)
	}
	if _, err := s.Query(canceled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded: canceled query returned %v", err)
	}
}

func TestShardedDifferentialOracle(t *testing.T) {
	seeds := []int64{311, 331}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, shards := range []int{2, 4, 3} {
			if testing.Short() && shards == 3 {
				continue
			}
			refInst, city := buildFixture(t, seed)
			shInst, _ := buildFixture(t, seed)
			ref := singleEngine(t, refInst)
			s := shardedEngine(t, shInst, shards)

			rng := rand.New(rand.NewSource(seed*29 + int64(shards)))
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
			checkCanceled(t, ref, s)
			if st := memberStats(s); st.CoverHits+st.CoverMisses == 0 || st.Updates == 0 {
				t.Fatalf("script served no queries or no updates: %+v", st)
			}
		}
	}
}

// applyRandomUpdates drives one random §6 mutation sequence through BOTH
// engines: site add/delete (exercising swap-remove mirroring, ownership
// invalidation, and representative takeover inside the owning shard) and
// trajectory add/delete (exercising the broadcast path and per-shard TL
// surgery). The sharded core takes each as the wire update a router
// receives; the reference takes the same update lowered as topsserve
// lowers it, except that a two-site add goes in as one AddSites batch.
// refInst tracks the reference engine's live site set (core mutates it in
// place).
func applyRandomUpdates(t *testing.T, ref *engine.Engine, s *Sharded, refInst *tops.Instance, rng *rand.Rand, extras []*trajectory.Trajectory) []*trajectory.Trajectory {
	t.Helper()
	g := refInst.G
	site := func(op wal.Kind, v roadnet.NodeID) wal.Update { return wal.Update{Op: op.String(), Node: int64(v)} }
	both := func(u wal.Update) {
		t.Helper()
		if errRef, errSh := applyBoth(ref, s, u); errRef != nil || errSh != nil {
			t.Fatalf("%+v: ref %v, sharded %v", u, errRef, errSh)
		}
	}
	for op := 0; op < 12; op++ {
		switch rng.Intn(5) {
		case 0: // add one site
			if v, ok := nonSiteNode(g, refInst, rng); ok {
				both(site(wal.KindAddSite, v))
			}
		case 1: // delete a random site, keeping a healthy pool
			if len(refInst.Sites) > 60 {
				both(site(wal.KindDeleteSite, refInst.Sites[rng.Intn(len(refInst.Sites))]))
			}
		case 2: // add two sites (routes to distinct shards sometimes)
			var nodes []roadnet.NodeID
			for len(nodes) < 2 {
				v, ok := nonSiteNode(g, refInst, rng)
				if !ok {
					break
				}
				if !slices.Contains(nodes, v) {
					nodes = append(nodes, v)
				}
			}
			if len(nodes) == 2 {
				if err := ref.AddSites(nodes); err != nil {
					t.Fatalf("ref AddSites: %v", err)
				}
				for _, v := range nodes {
					if err := s.AddSite(v); err != nil {
						t.Fatalf("sharded AddSite(%d): %v", v, err)
					}
				}
			}
		case 3: // ingest a fresh trajectory
			if len(extras) > 0 {
				u := wireTrajectory(extras[0])
				extras = extras[1:]
				m, err := u.Mutation(g)
				if err != nil {
					t.Fatal(err)
				}
				a, err := ref.Apply(m)
				if err != nil {
					t.Fatalf("ref add_trajectory: %v", err)
				}
				ack, err := s.Update(context.Background(), u)
				if err != nil {
					t.Fatalf("sharded add_trajectory: %v", err)
				}
				if ack.TrajectoryID == nil || trajectory.ID(*ack.TrajectoryID) != a.IDs[0] {
					t.Fatalf("trajectory id diverged: ref %d, sharded %v", a.IDs[0], ack.TrajectoryID)
				}
			}
		default: // delete a random live trajectory (dead draws are no-ops)
			u := wal.Update{Op: wal.KindDeleteTrajectory.String(), ID: int64(rng.Intn(refInst.M()))}
			if errRef, errSh := applyBoth(ref, s, u); (errRef == nil) != (errSh == nil) {
				t.Fatalf("delete_trajectory %d diverged: ref %v, sharded %v", u.ID, errRef, errSh)
			}
		}
	}
	return extras
}

// TestShardedExoticModes pins the merged-cover fallback against the
// reference engine for the query modes that carry extra greedy state.
func TestShardedExoticModes(t *testing.T) {
	refInst, _ := buildFixture(t, 353)
	shInst, _ := buildFixture(t, 353)
	ref := singleEngine(t, refInst)
	s := shardedEngine(t, shInst, 3)
	ctx := context.Background()

	for _, q := range []core.QueryOptions{
		{K: 5, Pref: tops.Binary(0.8), UseFM: true, F: 12, Seed: 99},
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
