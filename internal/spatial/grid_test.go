package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
)

func randomNodes(rng *rand.Rand, n int, span float64) *roadnet.Graph {
	g := roadnet.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * span, Y: rng.Float64() * span})
	}
	return g
}

func TestNearestBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomNodes(rng, 300, 10)
	gr := NewGrid(g, 0)
	for trial := 0; trial < 200; trial++ {
		q := geo.Point{X: rng.Float64()*14 - 2, Y: rng.Float64()*14 - 2}
		got, gotD := gr.Nearest(q)
		// Brute force oracle.
		want := roadnet.InvalidNode
		wantD := math.Inf(1)
		for v := 0; v < g.NumNodes(); v++ {
			if d := g.Point(roadnet.NodeID(v)).Dist(q); d < wantD {
				want, wantD = roadnet.NodeID(v), d
			}
		}
		if math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("query %v: got node %d at %v, want node %d at %v", q, got, gotD, want, wantD)
		}
	}
}

func TestWithinBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomNodes(rng, 400, 8)
	gr := NewGrid(g, 0.5)
	for trial := 0; trial < 100; trial++ {
		q := geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
		radius := rng.Float64() * 2
		got := gr.Within(q, radius, nil)
		var want []roadnet.NodeID
		for v := 0; v < g.NumNodes(); v++ {
			if g.Point(roadnet.NodeID(v)).Dist(q) <= radius {
				want = append(want, roadnet.NodeID(v))
			}
		}
		sortIDs(got)
		sortIDs(want)
		if len(got) != len(want) {
			t.Fatalf("radius %v: got %d nodes, want %d", radius, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("radius %v: member mismatch", radius)
			}
		}
	}
}

func sortIDs(ids []roadnet.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func TestEmptyGrid(t *testing.T) {
	g := roadnet.New(0)
	gr := NewGrid(g, 0)
	if v, d := gr.Nearest(geo.Point{}); v != roadnet.InvalidNode || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty grid = %d, %v", v, d)
	}
	if got := gr.Within(geo.Point{}, 5, nil); len(got) != 0 {
		t.Errorf("Within on empty grid = %v", got)
	}
}

func TestSingleNode(t *testing.T) {
	g := roadnet.New(1)
	g.AddNode(geo.Point{X: 1, Y: 1})
	gr := NewGrid(g, 0)
	v, d := gr.Nearest(geo.Point{X: 4, Y: 5})
	if v != 0 || math.Abs(d-5) > 1e-12 {
		t.Errorf("Nearest = %d, %v", v, d)
	}
	if got := gr.Within(geo.Point{X: 1, Y: 1}, 0, nil); len(got) != 1 {
		t.Errorf("Within radius 0 at node = %v", got)
	}
}

func TestNearestFarQuery(t *testing.T) {
	// Query far outside the bounding box must still find the right node.
	g := roadnet.New(2)
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 1, Y: 0})
	gr := NewGrid(g, 0.1)
	v, _ := gr.Nearest(geo.Point{X: 100, Y: 100})
	if v != 1 {
		t.Errorf("far query returned node %d, want 1", v)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	g := randomNodes(rand.New(rand.NewSource(4)), 10, 2)
	gr := NewGrid(g, 0)
	if got := gr.Within(geo.Point{}, -1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}
