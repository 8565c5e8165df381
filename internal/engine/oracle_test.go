package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// This file is the differential test oracle for the serving stack: every
// answer the Engine produces is re-derived by an independent brute-force
// reference built only from internal/tops primitives, and the two must
// agree. Three oracles run against each random (k, ψ, τ) draw:
//
//  1. Cover oracle — the §5.1 covering structure the engine serves
//     (parallel fill, memoized and patched across updates) is compared
//     entry-by-entry, in order and bit-for-bit, weights included, against a
//     naive reconstruction through Index.EstimatedDetour, which walks the
//     TL/CL lists independently.
//  2. Greedy oracle — tops.IncGreedy over the naive cover must reproduce
//     the engine's estimated utility exactly: both covers are equal bit for
//     bit, so the greedy does the same float operations on both.
//  3. Exact bound oracle — because d̂r over-estimates dr (Eq. 9), the
//     engine's estimated utility can never exceed the exact utility of its
//     own answer under a full tops.DistanceIndex.
//
// The whole battery repeats after random §6 update sequences driven
// through the Engine, so cover patching, swap-remove site deletion and
// trajectory liveness all sit inside the differential loop.

// naiveCover rebuilds the covering structure of instance p from scratch:
// for every representative cluster (in ladder order) and every trajectory
// id, the estimated detour is fetched through EstimatedDetour — a code path
// that shares no scan machinery with the parallel fill. Scores use the same
// float association as the fill, so agreement is exact, not approximate.
func naiveCover(idx *core.Index, p int, pref tops.Preference) (*tops.CoverSets, []core.ClusterID) {
	ins := idx.Instances[p]
	var reps []core.ClusterID
	for ci := range ins.Clusters {
		if ins.Clusters[ci].Rep != roadnet.InvalidNode {
			reps = append(reps, core.ClusterID(ci))
		}
	}
	m := idx.TopsInstance().M()
	cs := tops.NewCoverSets(len(reps), m)
	for ri, ci := range reps {
		for tid := 0; tid < m; tid++ {
			d := idx.EstimatedDetour(p, trajectory.ID(tid), ci)
			if d > pref.Tau {
				continue
			}
			if score := pref.Score(d); score != 0 || pref.F == nil {
				cs.AddPair(int32(ri), int32(tid), score)
			}
		}
	}
	return cs, reps
}

// sameCover asserts bit-exact equality of two covering structures, order
// included: the fill emits every TC list in ascending trajectory id, as the
// naive rebuild adds them, so each site weight is the same left-to-right sum.
func sameCover(t *testing.T, label string, got, want *tops.CoverSets) {
	t.Helper()
	if got.N() != want.N() || got.M != want.M {
		t.Fatalf("%s: cover shape (%d sites, %d trajs) != (%d, %d)", label, got.N(), got.M, want.N(), want.M)
	}
	for s := 0; s < got.N(); s++ {
		if math.Float64bits(got.Weights[s]) != math.Float64bits(want.Weights[s]) {
			t.Fatalf("%s: rep %d weight %v != oracle %v", label, s, got.Weights[s], want.Weights[s])
		}
		gTrajs, gScores := got.TC(int32(s))
		wTrajs, wScores := want.TC(int32(s))
		if len(gTrajs) != len(wTrajs) {
			t.Fatalf("%s: rep %d covers %d trajectories, oracle says %d", label, s, len(gTrajs), len(wTrajs))
		}
		for i, tr := range wTrajs {
			if gTrajs[i] != tr {
				t.Fatalf("%s: rep %d entry %d is trajectory %d, oracle %d", label, s, i, gTrajs[i], tr)
			}
			if math.Float64bits(gScores[i]) != math.Float64bits(wScores[i]) {
				t.Fatalf("%s: rep %d trajectory %d score %v != oracle %v", label, s, tr, gScores[i], wScores[i])
			}
		}
	}
}

// drawPref picks a random preference family and threshold.
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

// checkDraw runs the three oracles for one (k, ψ, τ) draw.
func checkDraw(t *testing.T, eng *Engine, idx *core.Index, distIdx *tops.DistanceIndex, k int, pref tops.Preference) {
	t.Helper()
	ctx := context.Background()
	res, err := eng.Query(ctx, core.QueryOptions{K: k, Pref: pref})
	if err != nil {
		t.Fatalf("engine query (k=%d, ψ=%s, τ=%.3f): %v", k, pref.Name, pref.Tau, err)
	}

	p := idx.InstanceFor(pref.Tau)
	if res.InstanceUsed != p {
		t.Fatalf("engine used instance %d, ladder says %d for τ=%.3f", res.InstanceUsed, p, pref.Tau)
	}

	// Oracle 1: the served (memoized) cover equals the naive rebuild.
	engCS, engReps, _ := idx.CoverFor(p, pref)
	refCS, refReps := naiveCover(idx, p, pref)
	if len(engReps) != len(refReps) {
		t.Fatalf("engine sees %d representatives, oracle %d", len(engReps), len(refReps))
	}
	for i := range refReps {
		if engReps[i] != refReps[i] {
			t.Fatalf("representative %d: engine cluster %d, oracle %d", i, engReps[i], refReps[i])
		}
	}
	if res.NumRepresentatives != len(refReps) {
		t.Fatalf("answer reports %d representatives, oracle %d", res.NumRepresentatives, len(refReps))
	}
	sameCover(t, pref.Name, engCS, refCS)

	// Oracle 2: reference greedy over the naive cover reproduces the
	// engine's estimated utility.
	kk := k
	if kk > len(refReps) {
		kk = len(refReps)
	}
	ref, err := tops.IncGreedy(refCS, tops.GreedyOptions{K: kk})
	if err != nil {
		t.Fatalf("reference greedy: %v", err)
	}
	if res.EstimatedUtility != ref.Utility {
		t.Fatalf("engine utility %v != oracle greedy %v (k=%d, ψ=%s, τ=%.3f)",
			res.EstimatedUtility, ref.Utility, k, pref.Name, pref.Tau)
	}
	if res.EstimatedCovered != ref.Covered {
		t.Fatalf("engine covered %d != oracle %d", res.EstimatedCovered, ref.Covered)
	}

	// Determinism across code paths: the core's uncached single-shot query
	// must agree with the engine's cached answer exactly.
	direct, err := idx.QueryCtx(ctx, core.QueryOptions{K: k, Pref: pref})
	if err != nil {
		t.Fatal(err)
	}
	if direct.EstimatedUtility != res.EstimatedUtility || len(direct.Sites) != len(res.Sites) {
		t.Fatalf("cached engine path and uncached core path disagree: %v vs %v",
			res.EstimatedUtility, direct.EstimatedUtility)
	}
	for i := range res.Sites {
		if res.Sites[i] != direct.Sites[i] {
			t.Fatalf("site %d differs between engine and core path", i)
		}
	}

	// Oracle 3: Eq. 9 over-estimates, so the estimated utility lower-bounds
	// the exact utility of the selected sites.
	exactU, _ := idx.EvaluateExact(distIdx, pref, res.Sites)
	if res.EstimatedUtility > exactU+1e-6 {
		t.Fatalf("estimated utility %v exceeds exact utility %v of its own answer (ψ=%s, τ=%.3f)",
			res.EstimatedUtility, exactU, pref.Name, pref.Tau)
	}
}

// TestEngineDifferentialOracle is the main oracle loop: random draws over a
// fresh index, then over the same index after random §6 update sequences
// applied through the Engine.
func TestEngineDifferentialOracle(t *testing.T) {
	seeds := []int64{211, 223}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		idx, inst, city := buildFixture(t, seed)
		eng, err := New(idx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 17))
		extras := extraTrajectories(t, city, 20, seed+901)

		rounds := 3
		draws := 5
		if testing.Short() {
			rounds, draws = 2, 3
		}
		for round := 0; round < rounds; round++ {
			// The exact reference is rebuilt per round because updates
			// change the site set and trajectory liveness. The horizon far
			// exceeds any draw's τ, so the sparse matrix is exact here.
			distIdx, err := tops.BuildDistanceIndex(idx.TopsInstance(), 40)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < draws; d++ {
				k := 1 + rng.Intn(12)
				checkDraw(t, eng, idx, distIdx, k, drawPref(rng))
			}
			if round == rounds-1 {
				break
			}
			applyRandomUpdates(t, eng, idx, inst, rng, extras)
		}
	}
}

// applyRandomUpdates drives a random §6 mutation sequence through the
// Engine: site add/delete (exercising swap-remove and representative
// takeover) and trajectory add/delete (exercising TL surgery and the alive
// mask), while keeping the instance large enough to stay queryable.
func applyRandomUpdates(t *testing.T, eng *Engine, idx *core.Index, inst *tops.Instance, rng *rand.Rand, extras []*trajectory.Trajectory) {
	t.Helper()
	g := inst.G
	for op := 0; op < 12; op++ {
		switch rng.Intn(4) {
		case 0: // add a random non-site node
			start := rng.Intn(g.NumNodes())
			for d := 0; d < g.NumNodes(); d++ {
				v := roadnet.NodeID((start + d) % g.NumNodes())
				if _, ok := inst.SiteIDOf(v); !ok {
					if err := eng.AddSite(v); err != nil {
						t.Fatalf("AddSite(%d): %v", v, err)
					}
					break
				}
			}
		case 1: // delete a random site, keeping a healthy pool
			if len(inst.Sites) > 60 {
				v := inst.Sites[rng.Intn(len(inst.Sites))]
				if err := eng.DeleteSite(v); err != nil {
					t.Fatalf("DeleteSite(%d): %v", v, err)
				}
			}
		case 2: // ingest a fresh trajectory
			if len(extras) > 0 {
				tr := extras[0]
				extras = extras[1:]
				if _, err := eng.AddTrajectory(tr); err != nil {
					t.Fatalf("AddTrajectory: %v", err)
				}
			}
		default: // delete a random live trajectory
			if idx.NumAlive() > 20 {
				tid := trajectory.ID(rng.Intn(inst.M()))
				// Drawing an already-dead id errors; such draws are no-ops.
				_ = eng.DeleteTrajectory(tid)
			}
		}
	}
	// The dense site table must remain the exact inverse of the site list
	// after any interleaving (regression guard for swap-remove deletion).
	for i, s := range inst.Sites {
		if sid, ok := inst.SiteIDOf(s); !ok || int(sid) != i {
			t.Fatalf("siteID table inconsistent at %d (node %d): got %v,%v", i, s, sid, ok)
		}
	}
}

// TestEngineQueryCancellation pins the engine-level contract of the
// context plumbing: a canceled request fails with the context error, is
// accounted in Stats, and never pollutes the cover cache for later
// requests.
func TestEngineQueryCancellation(t *testing.T) {
	idx, _, _ := buildFixture(t, 227)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := core.QueryOptions{K: 5, Pref: tops.Binary(0.8)}
	if _, err := eng.Query(ctx, q); err == nil {
		t.Fatal("canceled query succeeded")
	}
	st := eng.Stats()
	if st.Errors != 1 || st.Canceled != 1 {
		t.Fatalf("stats after canceled query: errors=%d canceled=%d, want 1/1", st.Errors, st.Canceled)
	}
	if st.CoverEntries != 0 {
		t.Fatalf("canceled query left %d cover entries", st.CoverEntries)
	}
	items := eng.QueryBatch(ctx, []core.QueryOptions{q, q})
	for i, it := range items {
		if it.Err == nil {
			t.Fatalf("batch item %d succeeded under canceled ctx", i)
		}
	}
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatalf("live query after cancellations: %v", err)
	}
	if st := eng.Stats(); st.Queries != 1 {
		t.Fatalf("live query not counted: %+v", st)
	}
}
