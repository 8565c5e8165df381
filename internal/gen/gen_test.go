package gen

import (
	"math"
	"testing"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

func genTestCity(t *testing.T, topo Topology) *City {
	t.Helper()
	city, err := GenerateCity(CityConfig{
		Topology: topo, Nodes: 900, SpanKm: 12, Jitter: 0.25,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 42,
	})
	if err != nil {
		t.Fatalf("GenerateCity(%v): %v", topo, err)
	}
	return city
}

func TestGenerateCityAllTopologies(t *testing.T) {
	for _, topo := range []Topology{GridMesh, Star, Polycentric, RingMesh} {
		t.Run(topo.String(), func(t *testing.T) {
			city := genTestCity(t, topo)
			g := city.Graph
			if g.NumNodes() < 100 {
				t.Fatalf("only %d nodes survived SCC restriction", g.NumNodes())
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(city.Hotspots) == 0 {
				t.Error("no hotspots")
			}
			// Strong connectivity: all round trips from node 0 finite.
			rts := roadnet.RoundTripsFrom(g, 0)
			for v, rt := range rts {
				if math.IsInf(rt, 1) {
					t.Fatalf("node %d unreachable — SCC restriction failed", v)
				}
			}
		})
	}
}

func TestGenerateCityDeterminism(t *testing.T) {
	cfg := CityConfig{Topology: GridMesh, Nodes: 400, SpanKm: 8, Jitter: 0.2, Seed: 7}
	a, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different cities")
	}
	for v := 0; v < a.Graph.NumNodes(); v++ {
		if a.Graph.Point(roadnet.NodeID(v)) != b.Graph.Point(roadnet.NodeID(v)) {
			t.Fatal("node positions differ")
		}
	}
}

func TestGenerateCityEdgeWeightsAdmissible(t *testing.T) {
	// Every edge weight must be >= Euclidean distance (A* admissibility).
	city := genTestCity(t, RingMesh)
	g := city.Graph
	for v := 0; v < g.NumNodes(); v++ {
		g.Neighbors(roadnet.NodeID(v), func(to roadnet.NodeID, w float64) bool {
			if eu := g.Point(roadnet.NodeID(v)).Dist(g.Point(to)); w < eu-1e-9 {
				t.Fatalf("edge %d->%d weight %v < euclid %v", v, to, w, eu)
			}
			return true
		})
	}
}

// TestGenerateCityCurvature: zero takes the default, anything else below 1
// (NaN included) is refused rather than silently raised, and a valid
// curvature is what the edge weights carry.
func TestGenerateCityCurvature(t *testing.T) {
	for _, c := range []float64{0.9, -1, math.NaN(), math.Inf(-1)} {
		if _, err := GenerateCity(CityConfig{Nodes: 100, Curvature: c}); err == nil {
			t.Errorf("curvature %v accepted", c)
		}
	}
	for _, c := range []float64{0, 1, 1.5} {
		city, err := GenerateCity(CityConfig{Nodes: 100, Curvature: c})
		if err != nil {
			t.Fatalf("curvature %v: %v", c, err)
		}
		want := c
		if c == 0 {
			want = 1.2
		}
		if city.Config.Curvature != want {
			t.Errorf("curvature %v built at %v, want %v", c, city.Config.Curvature, want)
		}
	}
}

func TestGenerateCityUnknownTopology(t *testing.T) {
	if _, err := GenerateCity(CityConfig{Topology: Topology(99)}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestGenerateTrajectories(t *testing.T) {
	city := genTestCity(t, GridMesh)
	store, err := GenerateTrajectories(city, TrajConfig{Count: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 150 {
		t.Fatalf("generated %d trajectories", store.Len())
	}
	stats := store.ComputeStats()
	if stats.MeanNodes < 3 {
		t.Errorf("trajectories too short: %+v", stats)
	}
	store.ForEach(func(id trajectory.ID, tr *trajectory.Trajectory) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trajectory %d: %v", id, err)
		}
		// Every hop must follow a graph edge (paths come from A*).
		for i := 0; i+1 < tr.Len(); i++ {
			if !city.Graph.HasEdge(tr.Nodes[i], tr.Nodes[i+1]) {
				t.Fatalf("trajectory %d hop %d->%d not an edge", id, tr.Nodes[i], tr.Nodes[i+1])
			}
		}
	})
}

func TestGenerateTrajectoriesDeterminism(t *testing.T) {
	city := genTestCity(t, Star)
	cfg := TrajConfig{Count: 50, Seed: 3}
	a, err := GenerateTrajectories(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrajectories(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		ta, tb := a.Get(trajectory.ID(i)), b.Get(trajectory.ID(i))
		if ta.Len() != tb.Len() {
			t.Fatal("same seed produced different trajectories")
		}
		for j := range ta.Nodes {
			if ta.Nodes[j] != tb.Nodes[j] {
				t.Fatal("node sequences differ")
			}
		}
	}
}

func TestGenerateTrajectoriesLengthBounds(t *testing.T) {
	city := genTestCity(t, GridMesh)
	cfg := TrajConfig{Count: 60, MinLenKm: 3, MaxLenKm: 7, Seed: 5}
	store, err := GenerateTrajectories(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store.ForEach(func(id trajectory.ID, tr *trajectory.Trajectory) {
		if tr.Length() < 3 || tr.Length() > 28 { // MaxLenKm*4 cap
			t.Errorf("trajectory %d length %v outside bounds", id, tr.Length())
		}
	})
}

func TestGenerateTrajectoriesTooRestrictive(t *testing.T) {
	city := genTestCity(t, GridMesh)
	// Impossible bounds: min above the whole span.
	_, err := GenerateTrajectories(city, TrajConfig{Count: 5, MinLenKm: 500, MaxLenKm: 600, Seed: 1})
	if err == nil {
		t.Error("impossible config accepted")
	}
}

func TestEmitGPS(t *testing.T) {
	city := genTestCity(t, GridMesh)
	store, err := GenerateTrajectories(city, TrajConfig{Count: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := store.Get(0)
	trace := EmitGPS(city.Graph, tr, GPSConfig{SampleEveryKm: 0.3, NoiseSigmaKm: 0.02, Seed: 9})
	if len(trace.Points) < 2 {
		t.Fatalf("trace has %d points", len(trace.Points))
	}
	// Expected point count is roughly length/interval.
	expect := tr.Length() / 0.3
	if float64(len(trace.Points)) < expect/2 || float64(len(trace.Points)) > expect*2+4 {
		t.Errorf("point count %d far from expectation %.0f", len(trace.Points), expect)
	}
	// Timestamps must be non-decreasing.
	for i := 1; i < len(trace.Points); i++ {
		if trace.Points[i].Time < trace.Points[i-1].Time {
			t.Fatal("timestamps decrease")
		}
	}
	// First point near trajectory start (within a few sigma).
	if trace.Points[0].Pos.Dist(city.Graph.Point(tr.Nodes[0])) > 0.2 {
		t.Error("first GPS point far from start")
	}
}

func TestEmitGPSNoNoise(t *testing.T) {
	city := genTestCity(t, GridMesh)
	store, err := GenerateTrajectories(city, TrajConfig{Count: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := store.Get(0)
	trace := EmitGPS(city.Graph, tr, GPSConfig{SampleEveryKm: 0.2, NoiseSigmaKm: -1, Seed: 1})
	// With zero noise the first point coincides with the start node.
	if d := trace.Points[0].Pos.Dist(city.Graph.Point(tr.Nodes[0])); d > 1e-9 {
		t.Errorf("noiseless first point off by %v", d)
	}
}

func TestSampleSites(t *testing.T) {
	city := genTestCity(t, GridMesh)
	n := city.Graph.NumNodes()
	all, err := SampleSites(city.Graph, SiteConfig{})
	if err != nil || len(all) != n {
		t.Fatalf("all-nodes sampling: len=%d err=%v", len(all), err)
	}
	sub, err := SampleSites(city.Graph, SiteConfig{Count: 50, Seed: 1})
	if err != nil || len(sub) != 50 {
		t.Fatalf("sampling: len=%d err=%v", len(sub), err)
	}
	// Sorted, unique, in range.
	for i := range sub {
		if i > 0 && sub[i] <= sub[i-1] {
			t.Fatal("sites not sorted/unique")
		}
		if int(sub[i]) >= n {
			t.Fatal("site out of range")
		}
	}
	// Deterministic.
	sub2, _ := SampleSites(city.Graph, SiteConfig{Count: 50, Seed: 1})
	for i := range sub {
		if sub[i] != sub2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	// Empty graph.
	if _, err := SampleSites(roadnet.New(0), SiteConfig{}); err == nil {
		t.Error("empty graph accepted")
	}
}
