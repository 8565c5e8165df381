package tops

import (
	"math"
	"math/rand"
	"testing"

	"netclus/internal/trajectory"
)

func TestBuildCoverSetsPrefix(t *testing.T) {
	inst, _ := gridInstance(t, 400, 40, 40, 61)
	idx, err := BuildDistanceIndex(inst, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.4, 0.8, 1.6, 3.2} {
		cs, err := BuildCoverSets(idx, Binary(tau))
		if err != nil {
			t.Fatal(err)
		}
		// Every TC member must have detour <= tau, and the counts must
		// match a direct scan of the index.
		for s := 0; s < inst.N(); s++ {
			want := 0
			for _, p := range idx.SitePairs(SiteID(s)) {
				if p.Dr <= tau {
					want++
				}
			}
			if cs.TCLen(int32(s)) != want {
				t.Fatalf("tau=%v site %d: TC size %d, want %d", tau, s, cs.TCLen(int32(s)), want)
			}
			if math.Abs(cs.Weights[s]-float64(want)) > 1e-9 {
				t.Fatalf("binary weight != TC size")
			}
		}
		// SC mirrors TC.
		scSum := 0
		for tr := 0; tr < inst.M(); tr++ {
			scSum += cs.SCLen(int32(tr))
		}
		if scSum != cs.Pairs() {
			t.Fatalf("SC total %d != pairs %d", scSum, cs.Pairs())
		}
	}
}

func TestCoverSetsGrowWithTau(t *testing.T) {
	// Table 9's driver: covering sets grow sharply with τ.
	inst, _ := gridInstance(t, 400, 40, 40, 62)
	idx, err := BuildDistanceIndex(inst, 6)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, tau := range []float64{0.1, 0.4, 0.8, 1.6, 3.0} {
		cs, err := BuildCoverSets(idx, Binary(tau))
		if err != nil {
			t.Fatal(err)
		}
		if cs.Pairs() < prev {
			t.Fatalf("pairs shrank as tau grew")
		}
		prev = cs.Pairs()
	}
}

func TestBuildCoverSetsRejectsTauBeyondHorizon(t *testing.T) {
	inst, _ := gridInstance(t, 200, 10, 10, 63)
	idx, err := BuildDistanceIndex(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCoverSets(idx, Binary(3)); err == nil {
		t.Error("tau beyond horizon accepted")
	}
}

func TestBuildCoverSetsNonBinaryScores(t *testing.T) {
	inst, _ := gridInstance(t, 300, 30, 30, 64)
	idx, err := BuildDistanceIndex(inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	pref := Linear(2)
	cs, err := BuildCoverSets(idx, pref)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < inst.N(); s++ {
		_, scores := cs.TC(int32(s))
		for i, sc := range scores {
			dr := idx.SitePairs(SiteID(s))[i].Dr
			if math.Abs(sc-pref.Score(dr)) > 1e-12 {
				t.Fatalf("score mismatch at site %d", s)
			}
			if sc < 0 || sc > 1 {
				t.Fatalf("score %v outside [0,1]", sc)
			}
		}
	}
}

func TestEvaluateSelectionAgainstManual(t *testing.T) {
	cs := paperExample1()
	u, covered := EvaluateSelection(cs, []SiteID{0, 2})
	if math.Abs(u-1.0) > 1e-12 || covered != 2 {
		t.Errorf("OPT selection: u=%v covered=%d", u, covered)
	}
	u, covered = EvaluateSelection(cs, []SiteID{1})
	if math.Abs(u-0.61) > 1e-12 || covered != 2 {
		t.Errorf("s2 selection: u=%v covered=%d", u, covered)
	}
	u, covered = EvaluateSelection(cs, nil)
	if u != 0 || covered != 0 {
		t.Errorf("empty selection: u=%v covered=%d", u, covered)
	}
}

func TestEndToEndGreedyOnRealInstance(t *testing.T) {
	// Full pipeline: city -> trajectories -> distance index -> cover sets
	// -> greedy. The selected sites must cover a meaningful share.
	inst, _ := gridInstance(t, 600, 80, 150, 65)
	idx, err := BuildDistanceIndex(inst, 6)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := BuildCoverSets(idx, Binary(1.0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := IncGreedy(cs, GreedyOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered == 0 {
		t.Fatal("greedy covered nothing on a dense instance")
	}
	// Coverage fraction should be substantial with 5 sites at τ=1km on a
	// 10km city with hotspot-skewed demand.
	frac := float64(res.Covered) / float64(inst.M())
	if frac < 0.2 {
		t.Errorf("coverage fraction %.2f suspiciously low", frac)
	}
	// Selected sites must be distinct.
	seen := map[SiteID]bool{}
	for _, s := range res.Selected {
		if seen[s] {
			t.Fatal("duplicate site selected")
		}
		seen[s] = true
	}
}

func TestGreedyUtilityIndependentOfSiteOrderProperty(t *testing.T) {
	// Permuting site ids must not change the greedy utility (modulo exact
	// ties, which random float scores avoid).
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 10; trial++ {
		n, m := 15, 40
		type pair struct {
			s, tr int32
			score float64
		}
		var pairs []pair
		for s := int32(0); s < int32(n); s++ {
			for tr := int32(0); tr < int32(m); tr++ {
				if rng.Float64() < 0.25 {
					pairs = append(pairs, pair{s, tr, rng.Float64()*0.99 + 0.01})
				}
			}
		}
		build := func(perm []int) *CoverSets {
			cs := NewCoverSets(n, m)
			for _, p := range pairs {
				cs.AddPair(int32(perm[p.s]), p.tr, p.score)
			}
			return cs
		}
		id := make([]int, n)
		shuffled := make([]int, n)
		for i := range id {
			id[i] = i
			shuffled[i] = i
		}
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r1, err := IncGreedy(build(id), GreedyOptions{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := IncGreedy(build(shuffled), GreedyOptions{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r1.Utility-r2.Utility) > 1e-9 {
			t.Fatalf("trial %d: utility depends on site order: %v vs %v", trial, r1.Utility, r2.Utility)
		}
	}
}

func TestCoverSetsMemoryBytesMonotone(t *testing.T) {
	inst, _ := gridInstance(t, 300, 30, 30, 67)
	idx, err := BuildDistanceIndex(inst, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := BuildCoverSets(idx, Binary(0.5))
	b, _ := BuildCoverSets(idx, Binary(2.5))
	if b.MemoryBytes() < a.MemoryBytes() {
		t.Error("memory estimate not monotone in tau")
	}
}

var _ = trajectory.ID(0) // keep import for helper signatures

// TestFinalizeAppendMatchesFinalize is FinalizeAppend's contract as a
// property: over random id-ascending rows (scores of both signs, so
// AllPositiveScores flips with the deletes) grown by random tails and
// filtered by random deletes, the splice is byte-equal to Finalize over the
// concatenated rows — Weights by bit pattern, every TC and SC row in order.
func TestFinalizeAppendMatchesFinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	score := func(neg bool) float64 {
		if neg && rng.Intn(40) == 0 {
			return -rng.Float64()
		}
		return 0.1 + rng.Float64()
	}
	for iter := 0; iter < 300; iter++ {
		n, m0 := 1+rng.Intn(12), rng.Intn(150)
		m1 := m0 + rng.Intn(80)
		neg := rng.Intn(2) == 0
		prev, want := NewCoverSets(n, m0), NewCoverSets(n, m1)
		grown := NewCoverSets(n, m1)
		live := make([]bool, m1)
		for t := range live {
			live[t] = iter%3 == 0 || rng.Intn(6) != 0
		}
		for s := int32(0); int(s) < n; s++ {
			for tr := int32(0); int(tr) < m1; tr++ {
				if rng.Intn(3) != 0 {
					continue
				}
				sc := score(neg)
				if int(tr) < m0 {
					prev.AddPair(s, tr, sc)
				} else {
					grown.AddPair(s, tr, sc)
				}
				if live[tr] || int(tr) >= m0 {
					want.AddPair(s, tr, sc)
				}
			}
		}
		prev.Finalize()
		want.Finalize()
		if iter%3 == 0 {
			live = nil // nothing died: the all-block-copy path
		}
		grown.FinalizeAppend(prev, live)
		if grown.AllPositiveScores() != want.AllPositiveScores() {
			t.Fatalf("iter %d: AllPositiveScores %v, want %v", iter, grown.AllPositiveScores(), want.AllPositiveScores())
		}
		for s := int32(0); int(s) < n; s++ {
			if math.Float64bits(grown.Weights[s]) != math.Float64bits(want.Weights[s]) {
				t.Fatalf("iter %d: weight of site %d is %v, want %v", iter, s, grown.Weights[s], want.Weights[s])
			}
			gt, gs := grown.TC(s)
			wt, ws := want.TC(s)
			if !equalRows(gt, gs, wt, ws) {
				t.Fatalf("iter %d: TC(%d) = %v %v, want %v %v", iter, s, gt, gs, wt, ws)
			}
		}
		for tr := int32(0); int(tr) < m1; tr++ {
			gt, gs := grown.SC(tr)
			wt, ws := want.SC(tr)
			if !equalRows(gt, gs, wt, ws) {
				t.Fatalf("iter %d: SC(%d) = %v %v, want %v %v", iter, tr, gt, gs, wt, ws)
			}
		}
	}
}

func equalRows(gotIDs []int32, gotScores []float64, wantIDs []int32, wantScores []float64) bool {
	if len(gotIDs) != len(wantIDs) || len(gotScores) != len(wantScores) {
		return false
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] || math.Float64bits(gotScores[i]) != math.Float64bits(wantScores[i]) {
			return false
		}
	}
	return true
}
