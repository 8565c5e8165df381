package shard

import (
	"context"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// buildFixture generates a deterministic dataset. Two calls with the same
// seed yield independent but identical instances, which the differential
// tests rely on: one copy feeds the single-shard reference engine, another
// the sharded engine, and both absorb the same update sequences.
func buildFixture(t testing.TB, seed int64) (*tops.Instance, *gen.City) {
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
	return inst, city
}

// fixtureBuild are the reference build options every differential test
// uses; the explicit τ range keeps ladders comparable across fixtures.
var fixtureBuild = core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4}

// singleEngine builds the single-shard reference engine over inst.
func singleEngine(t testing.TB, inst *tops.Instance) *engine.Engine {
	t.Helper()
	idx, err := core.Build(inst, fixtureBuild)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// shardedEngine builds a sharded engine over inst.
func shardedEngine(t testing.TB, inst *tops.Instance, shards int) *Sharded {
	t.Helper()
	s, err := Build(inst, Options{Shards: shards, Build: fixtureBuild})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// membersOf lists the in-process members s runs over.
func membersOf(s *Sharded) []*Member {
	out := make([]*Member, len(s.conns))
	for j, c := range s.conns {
		out[j] = c.(*Member)
	}
	return out
}

// metaOf is m's metadata.
func metaOf(m *Member) MemberMeta {
	meta, _ := m.Meta(context.Background())
	return meta
}

// routedTo is the shard of m's topology that owns node v.
func routedTo(m *Member, v roadnet.NodeID) int { return Of(v, m.shards) }

// memberStats sums the members' update and cover-cache counters.
func memberStats(s *Sharded) engine.Stats {
	var st engine.Stats
	for _, m := range membersOf(s) {
		ms := m.Stats()
		st.Updates += ms.Updates
		st.CoverHits += ms.CoverHits
		st.CoverMisses += ms.CoverMisses
		st.CoverRevalidated += ms.CoverRevalidated
		st.CoverRowsSwept += ms.CoverRowsSwept
		st.CoverEntries += ms.CoverEntries
	}
	return st
}

// memberCovers fetches the masked covers of instance p under pref from the
// members owning clusters of own, in shard order — the scatter of Query,
// for any preference, wire form or not.
func memberCovers(ctx context.Context, s *Sharded, p int, pref tops.Preference, own *Ownership) ([]Cover, error) {
	var covers []Cover
	for j, m := range membersOf(s) {
		if len(own.Masks[j]) > 0 {
			cs, reps, _, err := m.CoverMasked(ctx, p, pref, own.Masks[j])
			if err != nil {
				return nil, err
			}
			covers = append(covers, Cover{Shard: j, CS: cs, Reps: reps})
		}
	}
	return covers, nil
}

// wireTrajectory is the add_trajectory update carrying tr's node sequence.
func wireTrajectory(tr *trajectory.Trajectory) wal.Update {
	u := wal.Update{Op: wal.KindAddTrajectory.String()}
	for _, v := range tr.Nodes {
		u.Nodes = append(u.Nodes, int64(v))
	}
	return u
}

// applyBoth applies one wire update to the reference engine (lowered over
// its graph, as topsserve lowers it) and to the sharded core, and reports
// both outcomes.
func applyBoth(ref *engine.Engine, s *Sharded, u wal.Update) (refErr, shErr error) {
	m, refErr := u.Mutation(ref.Graph())
	if refErr == nil {
		_, refErr = ref.Apply(m)
	}
	_, shErr = s.Update(context.Background(), u)
	return refErr, shErr
}

// extraTrajectories generates trajectories over the same city that are not
// part of the fixture store, for ingestion during update tests.
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

// drawPref picks a random preference family and threshold, mirroring the
// engine oracle's draw distribution.
func drawPref(rng *rand.Rand) tops.Preference {
	tau := 0.3 + rng.Float64()*6.0
	switch rng.Intn(4) {
	case 0:
		return tops.Binary(tau)
	case 1:
		return tops.Linear(tau)
	case 2:
		return tops.ConvexQuadratic(tau)
	default:
		return tops.ExpDecay(tau, 0.5+rng.Float64()*1.5)
	}
}

// sameAnswer asserts BIT-exact equality of two query answers: same sites in
// the same order, same dense site ids, identical utility bits. This is the
// shard-differential bar — stronger than the engine oracle's tolerance.
func sameAnswer(t *testing.T, label string, got, want *core.QueryResult) {
	t.Helper()
	if got.EstimatedUtility != want.EstimatedUtility {
		t.Fatalf("%s: utility %v != %v (diff %g)", label, got.EstimatedUtility, want.EstimatedUtility, got.EstimatedUtility-want.EstimatedUtility)
	}
	if got.EstimatedCovered != want.EstimatedCovered {
		t.Fatalf("%s: covered %d != %d", label, got.EstimatedCovered, want.EstimatedCovered)
	}
	if got.InstanceUsed != want.InstanceUsed {
		t.Fatalf("%s: instance %d != %d", label, got.InstanceUsed, want.InstanceUsed)
	}
	if got.NumRepresentatives != want.NumRepresentatives {
		t.Fatalf("%s: representatives %d != %d", label, got.NumRepresentatives, want.NumRepresentatives)
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("%s: %d sites != %d", label, len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i] != want.Sites[i] {
			t.Fatalf("%s: site %d: node %d != %d", label, i, got.Sites[i], want.Sites[i])
		}
		if got.SiteIDs[i] != want.SiteIDs[i] {
			t.Fatalf("%s: site %d: dense id %d != %d", label, i, got.SiteIDs[i], want.SiteIDs[i])
		}
	}
}

// nonSiteNode finds a node that is not currently a site of inst, scanning
// from a random start.
func nonSiteNode(g *roadnet.Graph, inst *tops.Instance, rng *rand.Rand) (roadnet.NodeID, bool) {
	start := rng.Intn(g.NumNodes())
	for d := 0; d < g.NumNodes(); d++ {
		v := roadnet.NodeID((start + d) % g.NumNodes())
		if _, ok := inst.SiteIDOf(v); !ok {
			return v, true
		}
	}
	return 0, false
}
