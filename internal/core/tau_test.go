package core_test

import (
	"math"
	"sort"
	"testing"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/gen"
	"netclus/internal/geo"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// referenceTauRange is the τ-range estimate as it was before the early stop,
// frozen as the oracle: a sample's radius kept doubling, with full-graph
// searches up to 1e6 km, until some site beat the global τmin, and round
// trips came from joining two map-valued Bounded searches. Its τmax is then
// capped at twice the 5th percentile of the full-search samples' round
// trips to every node, read off their sorted list.
func referenceTauRange(inst *tops.Instance) (float64, float64) {
	g := inst.G
	scratch := roadnet.NewScratch(g)
	isSite := make(map[roadnet.NodeID]bool, len(inst.Sites))
	for _, s := range inst.Sites {
		isSite[s] = true
	}
	sampleEvery := len(inst.Sites)/64 + 1
	tmin := math.Inf(1)
	tmax := 0.0
	var all []float64
	for i := 0; i < len(inst.Sites); i += sampleEvery {
		src := inst.Sites[i]
		radius := 0.25
		found := false
		for !found && radius < 1e6 {
			fwd := scratch.Bounded(g, src, roadnet.Forward, radius)
			rev := scratch.Bounded(g, src, roadnet.Reverse, radius)
			for v, df := range fwd.Dist {
				db, ok := rev.Dist[v]
				if !ok {
					continue
				}
				if rt := df + db; rt <= radius && v != src && isSite[v] && rt < tmin {
					tmin = rt
					found = true
				}
			}
			radius *= 2
		}
		if i%(sampleEvery*4) == 0 {
			rts := roadnet.RoundTripsFrom(g, src)
			for _, s := range inst.Sites {
				if rt := rts[s]; !math.IsInf(rt, 1) && rt > tmax {
					tmax = rt
				}
			}
			for v := 0; v < g.NumNodes(); v++ {
				all = append(all, rts[v])
			}
		}
	}
	if math.IsInf(tmin, 1) || tmin <= 0 {
		tmin = 0.1
	}
	if tmax <= tmin {
		tmax = tmin * 64
	}
	sort.Float64s(all)
	if len(all) > 0 {
		if twoQ := 2 * all[len(all)*5/100]; twoQ > tmin && twoQ < tmax {
			tmax = twoQ
		}
	}
	return tmin, tmax
}

// polycentricInstance is a 2 000-node city with the given number of sites.
func polycentricInstance(t *testing.T, sites int) *tops.Instance {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.Polycentric, Nodes: 2000, SpanKm: 6, Jitter: 0.25,
		OneWayFrac: 0.12, RemoveFrac: 0.05, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: sites, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, ss)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestEstimateTauRangeMatchesExhaustive pins the τ-range estimate, which
// stops growing a sample's ball at the first other site it holds, to the
// loop that kept growing it: (τmin, τmax) must be bit-equal on the ledger
// instance, on a sparse site set, and with sites no other site reaches.
func TestEstimateTauRangeMatchesExhaustive(t *testing.T) {
	ledger, err := dataset.Load(dataset.Bangalore, dataset.Config{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Unreachable sites: an isolated node, and a dead end one can drive
	// into but not out of, both appended (the site list stays ascending).
	cut := polycentricInstance(t, 40)
	g := cut.G.Clone()
	island := g.AddNode(geo.Point{X: -50, Y: -50})
	deadEnd := g.AddNode(geo.Point{X: -1, Y: -1})
	if err := g.AddEdge(cut.Sites[0], deadEnd, 0.3); err != nil {
		t.Fatal(err)
	}
	sites := append(append([]roadnet.NodeID(nil), cut.Sites...), island, deadEnd)
	unreachable, err := tops.NewInstance(g, cut.Trajs, sites)
	if err != nil {
		t.Fatal(err)
	}
	// Only unreachable sites: every sample grows to the 1e6 km cap.
	lonely, err := tops.NewInstance(g, cut.Trajs, []roadnet.NodeID{island, deadEnd})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		inst *tops.Instance
	}{
		{"ledger", ledger.Instance},
		{"20_sites_of_2000", polycentricInstance(t, 20)},
		{"unreachable_sites", unreachable},
		{"only_unreachable_sites", lonely},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gotMin, gotMax := core.EstimateTauRange(tc.inst)
			wantMin, wantMax := referenceTauRange(tc.inst)
			if math.Float64bits(gotMin) != math.Float64bits(wantMin) || math.Float64bits(gotMax) != math.Float64bits(wantMax) {
				t.Fatalf("τ range (%v, %v), reference (%v, %v)", gotMin, gotMax, wantMin, wantMax)
			}
		})
	}
}
