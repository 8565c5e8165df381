package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"netclus/internal/geo"
)

// buildDiamond returns a small directed graph used by several tests:
//
//	0 -> 1 (1)   0 -> 2 (4)
//	1 -> 2 (2)   1 -> 3 (6)
//	2 -> 3 (3)   3 -> 0 (1)
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	edges := []struct {
		u, v NodeID
		w    float64
	}{
		{0, 1, 1}, {0, 2, 4}, {1, 2, 2}, {1, 3, 6}, {2, 3, 3}, {3, 0, 1},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	a := g.AddNode(geo.Point{})
	b := g.AddNode(geo.Point{X: 1})
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("invalid endpoint accepted")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(a, b, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(a, b, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := g.AddEdge(a, b, math.Inf(1)); err == nil {
		t.Error("Inf weight accepted")
	}
	if err := g.AddEdge(a, b, 1.5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := buildDiamond(t)
	if len(g.out[0]) != 2 || len(g.in[0]) != 1 {
		t.Errorf("node 0 degrees out=%d in=%d", len(g.out[0]), len(g.in[0]))
	}
	if len(g.out[3]) != 1 || len(g.in[3]) != 2 {
		t.Errorf("node 3 degrees out=%d in=%d", len(g.out[3]), len(g.in[3]))
	}
	var seen []NodeID
	g.Neighbors(0, func(to NodeID, w float64) bool {
		seen = append(seen, to)
		return true
	})
	if len(seen) != 2 {
		t.Errorf("Neighbors(0) visited %v", seen)
	}
	// Early stop.
	count := 0
	g.Neighbors(0, func(NodeID, float64) bool { count++; return false })
	if count != 1 {
		t.Errorf("early-stop iteration visited %d", count)
	}
}

func TestEdgeWeightAndHasEdge(t *testing.T) {
	g := buildDiamond(t)
	if w := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("EdgeWeight(0,1) = %v", w)
	}
	if !math.IsInf(g.EdgeWeight(1, 0), 1) {
		t.Error("EdgeWeight for missing edge should be +Inf")
	}
	if !g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Error("HasEdge direction confusion")
	}
	// Parallel edges: lightest wins.
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(0, 1); w != 0.5 {
		t.Errorf("parallel EdgeWeight = %v, want 0.5", w)
	}
}

func TestValidate(t *testing.T) {
	g := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSplitEdgeDirected(t *testing.T) {
	g := buildDiamond(t)
	nBefore, eBefore := g.NumNodes(), g.NumEdges()
	mid, err := g.SplitEdge(1, 3, 0.25)
	if err != nil {
		t.Fatalf("SplitEdge: %v", err)
	}
	if g.NumNodes() != nBefore+1 {
		t.Errorf("node count %d, want %d", g.NumNodes(), nBefore+1)
	}
	if g.NumEdges() != eBefore+1 { // one edge removed, two added
		t.Errorf("edge count %d, want %d", g.NumEdges(), eBefore+1)
	}
	if g.HasEdge(1, 3) {
		t.Error("split edge should be removed")
	}
	if w := g.EdgeWeight(1, mid); math.Abs(w-1.5) > 1e-12 {
		t.Errorf("w(1,mid) = %v, want 1.5", w)
	}
	if w := g.EdgeWeight(mid, 3); math.Abs(w-4.5) > 1e-12 {
		t.Errorf("w(mid,3) = %v, want 4.5", w)
	}
	// Shortest path length 1->3 must be preserved through the split node.
	d := Dijkstra(g, 1, Forward)
	if math.Abs(d[3]-5) > 1e-12 { // 1->2->3 = 5 still shortest
		t.Errorf("d(1,3) = %v, want 5", d[3])
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate after split: %v", err)
	}
}

func TestSplitEdgeBidirectional(t *testing.T) {
	g := New(2)
	a := g.AddNode(geo.Point{X: 0})
	b := g.AddNode(geo.Point{X: 10})
	if err := g.AddBidirectional(a, b, 10); err != nil {
		t.Fatal(err)
	}
	mid, err := g.SplitEdge(a, b, 0.3)
	if err != nil {
		t.Fatalf("SplitEdge: %v", err)
	}
	for _, c := range []struct {
		u, v NodeID
		w    float64
	}{{a, mid, 3}, {mid, b, 7}, {b, mid, 7}, {mid, a, 3}} {
		if got := g.EdgeWeight(c.u, c.v); math.Abs(got-c.w) > 1e-9 {
			t.Errorf("w(%d,%d) = %v, want %v", c.u, c.v, got, c.w)
		}
	}
	if g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Error("original two-way edge should be gone")
	}
	// Coordinates interpolated.
	if p := g.Point(mid); math.Abs(p.X-3) > 1e-9 {
		t.Errorf("mid point = %v", p)
	}
}

func TestSplitEdgeErrors(t *testing.T) {
	g := buildDiamond(t)
	if _, err := g.SplitEdge(0, 3, 0.5); err == nil {
		t.Error("split of missing edge accepted")
	}
	if _, err := g.SplitEdge(0, 1, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := g.SplitEdge(0, 1, 1); err == nil {
		t.Error("t=1 accepted")
	}
	if _, err := g.SplitEdge(42, 1, 0.5); err == nil {
		t.Error("invalid endpoint accepted")
	}
}

func TestCloneIsolation(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	if err := c.AddEdge(3, 1, 9); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(3, 1) {
		t.Error("mutation of clone leaked into original")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Error("clone edge count wrong")
	}
}

func TestBounds(t *testing.T) {
	g := buildDiamond(t)
	b := g.Bounds()
	if b.Min != (geo.Point{X: 0, Y: 0}) || b.Max != (geo.Point{X: 3, Y: 0}) {
		t.Errorf("Bounds = %+v", b)
	}
}

// randomGraph builds a random strongly-ish connected graph for oracle tests.
func randomGraph(rng *rand.Rand, n int, extraEdges int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	// Ring for strong connectivity.
	for i := 0; i < n; i++ {
		_ = g.AddEdge(NodeID(i), NodeID((i+1)%n), 0.5+rng.Float64()*3)
	}
	for i := 0; i < extraEdges; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v {
			_ = g.AddEdge(u, v, 0.5+rng.Float64()*3)
		}
	}
	return g
}

// floydWarshall is the exact all-pairs oracle.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for u := 0; u < n; u++ {
		g.Neighbors(NodeID(u), func(to NodeID, w float64) bool {
			if w < d[u][to] {
				d[u][to] = w
			}
			return true
		})
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if math.IsInf(d[i][k], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraAgainstFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(25)
		g := randomGraph(rng, n, n*2)
		oracle := floydWarshall(g)
		for src := 0; src < n; src++ {
			fwd := Dijkstra(g, NodeID(src), Forward)
			rev := Dijkstra(g, NodeID(src), Reverse)
			for v := 0; v < n; v++ {
				if math.Abs(fwd[v]-oracle[src][v]) > 1e-9 {
					t.Fatalf("trial %d: d(%d,%d) = %v, oracle %v", trial, src, v, fwd[v], oracle[src][v])
				}
				if math.Abs(rev[v]-oracle[v][src]) > 1e-9 {
					t.Fatalf("trial %d: reverse d(%d,%d) = %v, oracle %v", trial, v, src, rev[v], oracle[v][src])
				}
			}
		}
	}
}

func TestBoundedDijkstraMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(30)
		g := randomGraph(rng, n, n*2)
		full := Dijkstra(g, 0, Forward)
		radius := 1.0 + rng.Float64()*4
		res := BoundedDijkstra(g, 0, Forward, radius)
		for v := 0; v < n; v++ {
			d, ok := res.Dist[NodeID(v)]
			if full[v] <= radius {
				if !ok || math.Abs(d-full[v]) > 1e-9 {
					t.Fatalf("node %d within radius %v missing or wrong: got %v ok=%v want %v", v, radius, d, ok, full[v])
				}
			} else if ok {
				t.Fatalf("node %d beyond radius reported with %v (full %v)", v, d, full[v])
			}
		}
		// Settled order must be non-decreasing.
		for i := 1; i < len(res.Nodes); i++ {
			if res.Dist[res.Nodes[i]] < res.Dist[res.Nodes[i-1]]-1e-12 {
				t.Fatal("settled nodes out of order")
			}
		}
	}
}

func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 80)
	s := NewScratch(g)
	for src := NodeID(0); src < 40; src += 5 {
		want := Dijkstra(g, src, Forward)
		got := s.Bounded(g, src, Forward, -1)
		for v := 0; v < 40; v++ {
			gd := got.Get(NodeID(v))
			if math.IsInf(want[v], 1) != math.IsInf(gd, 1) || (!math.IsInf(gd, 1) && math.Abs(gd-want[v]) > 1e-9) {
				t.Fatalf("scratch reuse src=%d node=%d got %v want %v", src, v, gd, want[v])
			}
		}
	}
}

func TestScratchGrowsAfterSplit(t *testing.T) {
	g := buildDiamond(t)
	s := NewScratch(g)
	_ = s.Bounded(g, 0, Forward, -1)
	if _, err := g.SplitEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	res := s.Bounded(g, 0, Forward, -1)
	if len(res.Dist) != g.NumNodes() {
		t.Errorf("after split reached %d nodes, want %d", len(res.Dist), g.NumNodes())
	}
}

func TestShortestPath(t *testing.T) {
	g := buildDiamond(t)
	path, d := ShortestPath(g, 0, 3)
	if math.Abs(d-6) > 1e-12 {
		t.Errorf("d = %v, want 6", d)
	}
	want := []NodeID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Unreachable destination.
	g2 := New(2)
	a := g2.AddNode(geo.Point{})
	b := g2.AddNode(geo.Point{X: 1})
	if p, d := ShortestPath(g2, a, b); p != nil || !math.IsInf(d, 1) {
		t.Errorf("unreachable: path=%v d=%v", p, d)
	}
	// Trivial path.
	if p, d := ShortestPath(g, 2, 2); d != 0 || len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v, %v", p, d)
	}
}

func TestRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	// d(0,3) = 6 via 0-1-2-3; d(3,0) = 1.
	if rt := RoundTrip(g, 0, 3); math.Abs(rt-7) > 1e-12 {
		t.Errorf("RoundTrip(0,3) = %v, want 7", rt)
	}
	if rt := RoundTrip(g, 3, 0); math.Abs(rt-7) > 1e-12 {
		t.Errorf("RoundTrip symmetric = %v, want 7", rt)
	}
	rts := RoundTripsFrom(g, 0)
	if math.Abs(rts[3]-7) > 1e-12 || rts[0] != 0 {
		t.Errorf("RoundTripsFrom = %v", rts)
	}
}

func TestRoundTripSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 15+rng.Intn(15), 30)
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		a, b := RoundTrip(g, u, v), RoundTrip(g, v, u)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("dr(%d,%d)=%v != dr(%d,%d)=%v", u, v, a, v, u, b)
		}
	}
}

func TestBoundedRoundTripsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 30, 60)
	s := NewScratch(g)
	src := NodeID(4)
	twoR := 3.5
	got := make(map[NodeID]float64)
	for _, u := range s.RoundTrips(g, src, twoR, nil) {
		got[u.Node] = u.Dr
	}
	oracle := RoundTripsFrom(g, src)
	for v := 0; v < g.NumNodes(); v++ {
		rt, ok := got[NodeID(v)]
		if oracle[v] <= twoR {
			if !ok || math.Abs(rt-oracle[v]) > 1e-9 {
				t.Fatalf("node %d: got %v ok=%v want %v", v, rt, ok, oracle[v])
			}
		} else if ok {
			t.Fatalf("node %d beyond 2R included (rt=%v oracle=%v)", v, rt, oracle[v])
		}
	}
}

func TestSCCDiamond(t *testing.T) {
	g := buildDiamond(t) // has cycle 0-1-2-3-0 so fully strongly connected
	comps := StronglyConnectedComponents(g)
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Errorf("comps = %v", comps)
	}
}

func TestSCCTwoComponents(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddNode(geo.Point{X: float64(i)})
	}
	// Cycle {0,1,2}; path 2->3->4 (3, 4 are singleton SCCs).
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(2, 0, 1)
	_ = g.AddEdge(2, 3, 1)
	_ = g.AddEdge(3, 4, 1)
	comps := StronglyConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("want 3 SCCs, got %d: %v", len(comps), comps)
	}
	if got := LargestSCC(g); len(got) != 3 {
		t.Errorf("LargestSCC size = %d", len(got))
	}
}

func TestSCCMatchesReachabilityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(geo.Point{X: rng.Float64()})
		}
		for i := 0; i < n*2; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				_ = g.AddEdge(u, v, 1)
			}
		}
		d := floydWarshall(g)
		same := func(u, v int) bool {
			return !math.IsInf(d[u][v], 1) && !math.IsInf(d[v][u], 1)
		}
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		for ci, c := range StronglyConnectedComponents(g) {
			for _, v := range c {
				comp[v] = ci
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (comp[u] == comp[v]) != same(u, v) {
					t.Fatalf("trial %d: SCC disagreement at (%d,%d)", trial, u, v)
				}
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildDiamond(t)
	sub, mapping := InducedSubgraph(g, []NodeID{0, 1, 2})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	if mapping[3] != InvalidNode {
		t.Error("dropped node should map to InvalidNode")
	}
	// Edges among {0,1,2}: 0->1, 0->2, 1->2.
	if sub.NumEdges() != 3 {
		t.Errorf("sub edges = %d, want 3", sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRestrictToLargestSCCAllRoundTripsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := New(30)
	for i := 0; i < 30; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5})
	}
	for i := 0; i < 60; i++ {
		u, v := NodeID(rng.Intn(30)), NodeID(rng.Intn(30))
		if u != v {
			_ = g.AddEdge(u, v, 0.5+rng.Float64())
		}
	}
	core, _ := RestrictToLargestSCC(g)
	if core.NumNodes() == 0 {
		t.Skip("degenerate random graph")
	}
	rts := RoundTripsFrom(core, 0)
	for v, rt := range rts {
		if math.IsInf(rt, 1) {
			t.Fatalf("node %d unreachable in SCC core", v)
		}
	}
}
