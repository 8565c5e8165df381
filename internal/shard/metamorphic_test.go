package shard

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/tops"
)

// Metamorphic properties of the gather: the answer is an invariant of the
// decomposition. Shard count, partitioner, and the order the gather
// enumerates shards in are all implementation detail; any visible
// difference is a merge bug.

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

func TestGatherOrderInvariance(t *testing.T) {
	// The coordinator's reduce is a strict total order, so permuting the
	// order it enumerates the shards' sessions in must not change any
	// answer.
	inst, _ := buildFixture(t, 419)
	s := shardedEngine(t, inst, 4, HashPartitioner)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for _, q := range queryGrid() {
		base, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		p := s.shards[0].eng.InstanceFor(q.Pref.Tau)
		own := s.ownership(p)
		gs, err := s.scatter(ctx, p, q.Pref, own)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs.covers) < 3 {
			t.Fatalf("only %d owning shards: the permutations below would prove nothing", len(gs.covers))
		}
		for trial := 0; trial < 4; trial++ {
			hs := make([]Handle, len(gs.covers))
			for i, j := range rng.Perm(len(gs.covers)) {
				sc := gs.covers[j]
				hs[i] = Handle{Shard: sc.shard, Session: openSession(sc.cs, sc.reps, own.Masks[sc.shard], own.MasksGI[sc.shard], true)}
			}
			var g Gather
			res, err := g.Run(ctx, q.K, hs, Inline)
			if err != nil {
				t.Fatal(err)
			}
			got := &core.QueryResult{
				EstimatedUtility: res.Utility, EstimatedCovered: res.Covered,
				InstanceUsed: p, NumRepresentatives: len(own.Winners),
			}
			for _, gi := range res.Selected {
				got.Sites = append(got.Sites, own.Winners[gi].Node)
				got.SiteIDs = append(got.SiteIDs, s.sites.ID(own.Winners[gi].Node))
			}
			sameAnswer(t, "gather-order invariance", got, base)
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
	st := uncached.Stats()
	if st.CoverHits != 0 || st.CoverMisses != 0 || st.CoverEntries != 0 {
		t.Fatalf("uncached sharded engine touched the cover cache: %+v", st)
	}
}

// TestManifestRoundTrip saves a sharded engine through both snapshot
// carriers and verifies the reloaded engines answer identically — before
// and after further §6 updates, which must keep working on a loaded engine.
func TestManifestRoundTrip(t *testing.T) {
	inst, city := buildFixture(t, 421)
	s := shardedEngine(t, inst, 3, GridPartitioner)
	ctx := context.Background()

	// Directory carrier.
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	dirInst, _ := buildFixture(t, 421)
	fromDir, err := LoadDir(dir, dirInst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fromDir.Shards() != 3 {
		t.Fatalf("LoadDir shards = %d, want 3", fromDir.Shards())
	}

	// Stream carrier.
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	streamInst, _ := buildFixture(t, 421)
	fromStream, err := LoadSharded(bytes.NewReader(buf.Bytes()), streamInst, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range queryGrid() {
		want, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		gotDir, err := fromDir.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "LoadDir round trip", gotDir, want)
		gotStream, err := fromStream.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "LoadSharded round trip", gotStream, want)
	}

	// A loaded engine stays live: the same update applied to origin and
	// reload must keep them answering identically.
	extra := extraTrajectories(t, city, 1, 5555)[0]
	if _, err := s.AddTrajectory(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := fromDir.AddTrajectory(extra); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSite(inst.Sites[3]); err != nil {
		t.Fatal(err)
	}
	if err := fromDir.DeleteSite(dirInst.Sites[3]); err != nil {
		t.Fatal(err)
	}
	for _, q := range queryGrid() {
		want, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fromDir.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "post-update round trip", got, want)
	}
}

// TestManifestRoundTripAfterUpdates pins the regression the manifest's
// per-shard site lists exist for: after §6 site deletions the per-shard
// list orders diverge from anything re-partitioning can derive (each
// shard's core swap-removes independently of the global mirror), so a
// snapshot taken AFTER deletions must still reload — against the engine's
// current logical dataset (Sites() order + current trajectory store).
func TestManifestRoundTripAfterUpdates(t *testing.T) {
	inst, city := buildFixture(t, 457)
	s := shardedEngine(t, inst, 3, HashPartitioner)
	ctx := context.Background()

	// Churn: trajectory add plus several deletes across different shards,
	// then an add — the delete of a site on a different shard than the
	// global-last site is the order-divergence trigger.
	extra := extraTrajectories(t, city, 2, 6001)
	if _, err := s.AddTrajectory(extra[0]); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 17, 40, 81} {
		if err := s.DeleteSite(inst.Sites[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSite(inst.Sites[2]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	// The load-time dataset is the engine's CURRENT logical dataset: the
	// mirror-ordered site list plus the update-extended trajectory store.
	curTrajs := inst.Trajs.Clone()
	curTrajs.Add(extra[0])
	curInst := &tops.Instance{G: inst.G, Trajs: curTrajs, Sites: s.Sites()}

	fromStream, err := LoadSharded(bytes.NewReader(buf.Bytes()), curInst, Options{})
	if err != nil {
		t.Fatalf("post-update container load: %v", err)
	}
	fromDir, err := LoadDir(dir, curInst, Options{})
	if err != nil {
		t.Fatalf("post-update dir load: %v", err)
	}
	for _, q := range queryGrid() {
		want, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := fromStream.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "post-delete container round trip", gotS, want)
		gotD, err := fromDir.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "post-delete dir round trip", gotD, want)
	}
}

// TestManifestRejects pins the load-time validation: wrong dataset, corrupt
// manifests, and truncated containers error instead of panicking or loading
// silently wrong.
func TestManifestRejects(t *testing.T) {
	inst, _ := buildFixture(t, 431)
	s := shardedEngine(t, inst, 2, HashPartitioner)
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other, _ := buildFixture(t, 433) // different dataset
	if _, err := LoadSharded(bytes.NewReader(buf.Bytes()), other, Options{}); err == nil {
		t.Fatal("foreign dataset accepted")
	}

	same, _ := buildFixture(t, 431)
	if _, err := LoadSharded(bytes.NewReader(buf.Bytes()[:40]), same, Options{}); err == nil {
		t.Fatal("truncated container accepted")
	}

	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)-9] ^= 0x40 // flip a bit inside the last shard payload
	if _, err := LoadSharded(bytes.NewReader(corrupt), same, Options{}); err == nil {
		t.Fatal("corrupt shard payload accepted")
	}

	if _, err := LoadDir(t.TempDir(), same, Options{}); err == nil {
		t.Fatal("empty directory accepted")
	}
}
