package core

import (
	"context"
	"maps"
	"math"
	"slices"
	"testing"

	"netclus/internal/gen"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// sameCoverBits asserts that two finalized covers are byte-equal through
// the read accessors: shape, AllPositiveScores, Weights by bit pattern, and
// every TC and SC row in order.
func sameCoverBits(t testing.TB, label string, got, want *tops.CoverSets) {
	t.Helper()
	if got.M != want.M || got.N() != want.N() {
		t.Fatalf("%s: cover is %d sites x %d trajectories, fresh fill %d x %d", label, got.N(), got.M, want.N(), want.M)
	}
	if got.AllPositiveScores() != want.AllPositiveScores() {
		t.Fatalf("%s: AllPositiveScores %v, fresh fill %v", label, got.AllPositiveScores(), want.AllPositiveScores())
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.EqualFunc(got.Weights, want.Weights, sameBits) {
		t.Fatalf("%s: site weights differ from a fresh fill", label)
	}
	for s := int32(0); int(s) < got.N(); s++ {
		gt, gs := got.TC(s)
		wt, ws := want.TC(s)
		if !slices.Equal(gt, wt) || !slices.EqualFunc(gs, ws, sameBits) {
			t.Fatalf("%s: TC row %d differs from a fresh fill", label, s)
		}
	}
	for tr := int32(0); int(tr) < got.M; tr++ {
		gt, gs := got.SC(tr)
		wt, ws := want.SC(tr)
		if !slices.Equal(gt, wt) || !slices.EqualFunc(gs, ws, sameBits) {
			t.Fatalf("%s: SC row %d differs from a fresh fill", label, tr)
		}
	}
}

// TestFillEmitsRowsInTrajectoryOrder pins the row order a trajectory patch
// relies on: every TC row of a fill lists exactly the trajectories within τ
// of its representative (recomputed here from the TL/CL lists with a map),
// strictly ascending by id. The store holds 2 000 trajectories (32 bitmap
// words), so under small τ rows reaching two or three trajectories take the
// sorted-list path and denser rows the bitmap walk; the test fails if
// either stops occurring. It then ingests a window, deletes ids the cover
// holds and one added in the window, and requires the patched cover to
// equal a fresh fill.
func TestFillEmitsRowsInTrajectoryOrder(t *testing.T) {
	city, err := gen.GenerateCity(gen.CityConfig{Topology: gen.GridMesh, Nodes: 2000, SpanKm: 20, Jitter: 0.2, Seed: 151})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 2000, Seed: 152})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 300, Seed: 153})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(inst, Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4})
	if err != nil {
		t.Fatal(err)
	}
	m := idx.trajs.Len()
	words := (m + 63) / 64
	sparse, dense := 0, 0
	checkRows := func(p int, pref tops.Preference) {
		ins := idx.Instances[p]
		cs, reps, err := idx.RepCoverCtx(context.Background(), p, pref)
		if err != nil {
			t.Fatal(err)
		}
		for ri, ci := range reps {
			cl := &ins.Clusters[ci]
			reach := map[trajectory.ID]float64{}
			scan := func(tl []TrajEntry, base float64) {
				for _, te := range tl {
					if d := te.Dr + base; d <= pref.Tau {
						if old, ok := reach[te.Traj]; !ok || d < old {
							reach[te.Traj] = d
						}
					}
				}
			}
			scan(cl.TL, 0+cl.RepDr)
			for _, nb := range cl.CL {
				scan(ins.Clusters[nb.Cluster].TL, nb.Dr+cl.RepDr)
			}
			switch {
			case words <= 8*len(reach):
				dense++
			case len(reach) >= 2:
				sparse++
			}
			var wantT []int32
			var wantS []float64
			for _, tid := range slices.Sorted(maps.Keys(reach)) {
				if score := pref.Score(reach[tid]); score != 0 {
					wantT = append(wantT, int32(tid))
					wantS = append(wantS, score)
				}
			}
			gotT, gotS := cs.TC(int32(ri))
			if !slices.Equal(gotT, wantT) || !slices.Equal(gotS, wantS) {
				t.Fatalf("rung %d ψ=%s row %d (cluster %d): TC %v, want %v in ascending id", p, pref.Name, ri, ci, gotT, wantT)
			}
		}
	}
	for p, ins := range idx.Instances {
		checkRows(p, tops.Linear(2*ins.Radius))
		checkRows(p, tops.Binary(0.2))
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("%d rows took the sorted-list path and %d the bitmap walk; the fixture must exercise both", sparse, dense)
	}

	pref := tops.Linear(1.2)
	p := idx.InstanceFor(pref.Tau)
	if _, _, _, err := idx.CoverForCtx(context.Background(), p, pref); err != nil {
		t.Fatal(err)
	}
	var window []*trajectory.Trajectory
	for i := 0; i < 64; i++ {
		window = append(window, inst.Trajs.Get(trajectory.ID(i*7)))
	}
	ids, err := idx.AddTrajectories(window)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteTrajectories([]trajectory.ID{3, 500, trajectory.ID(m - 1), ids[5]}); err != nil {
		t.Fatal(err)
	}
	before := idx.CoverCacheStats()
	got, _, swept, err := idx.CoverForCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	if after := idx.CoverCacheStats(); swept != 0 || after.Revalidated != before.Revalidated+1 {
		t.Fatalf("lookup after a window and deletes swept %d rows, revalidated %d times; want one patch sweeping none", swept, after.Revalidated-before.Revalidated)
	}
	want, _, err := idx.RepCoverCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	sameCoverBits(t, "patched cover", got, want)
	for p := range idx.Instances {
		if err := idx.validateInstance(p); err != nil {
			t.Fatalf("instance %d: %v", p, err)
		}
	}
}
