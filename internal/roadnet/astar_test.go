package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"netclus/internal/geo"
)

// euclidGraph builds a random planar-ish graph whose edge weights are the
// Euclidean distance times a factor >= 1, so the A* heuristic is admissible.
func euclidGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	for i := 0; i < n; i++ {
		u := NodeID(i)
		v := NodeID((i + 1) % n)
		_ = g.AddEdgeEuclid(u, v, 1.0+rng.Float64())
		_ = g.AddEdgeEuclid(v, u, 1.0+rng.Float64())
	}
	for i := 0; i < n*3; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v {
			_ = g.AddEdgeEuclid(u, v, 1.0+rng.Float64())
		}
	}
	return g
}

func TestAStarMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := euclidGraph(rng, 30+rng.Intn(50))
		for q := 0; q < 20; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			_, want := ShortestPath(g, src, dst)
			path, got := AStar(g, src, dst)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: AStar(%d,%d) = %v, Dijkstra %v", trial, src, dst, got, want)
			}
			// Path must be a valid edge walk whose weights sum to got.
			if len(path) > 0 {
				var sum float64
				for i := 0; i+1 < len(path); i++ {
					w := g.EdgeWeight(path[i], path[i+1])
					if math.IsInf(w, 1) {
						t.Fatalf("path uses missing edge %d->%d", path[i], path[i+1])
					}
					sum += w
				}
				if math.Abs(sum-got) > 1e-9 {
					t.Fatalf("path length %v != reported %v", sum, got)
				}
			}
		}
	}
}

func TestAStarTrivialAndUnreachable(t *testing.T) {
	g := New(3)
	a := g.AddNode(geo.Point{})
	b := g.AddNode(geo.Point{X: 1})
	c := g.AddNode(geo.Point{X: 2})
	_ = g.AddEdge(a, b, 1)
	if p, d := AStar(g, a, a); d != 0 || len(p) != 1 {
		t.Errorf("self path = %v, %v", p, d)
	}
	if p, d := AStar(g, a, c); p != nil || !math.IsInf(d, 1) {
		t.Errorf("unreachable = %v, %v", p, d)
	}
	if _, d := AStar(g, -1, b); !math.IsInf(d, 1) {
		t.Error("invalid src accepted")
	}
}

// TestScratchAStarReuse checks that one scratch, reused across A* runs and
// interleaved with the other searches sharing its arrays, returns exactly
// the fresh-scratch path, appended after whatever the buffer already held.
func TestScratchAStarReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := euclidGraph(rng, 80)
	s := NewScratch(g)
	buf := []NodeID{-7}
	out := make([]float64, 3)
	for q := 0; q < 200; q++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		dst := NodeID(rng.Intn(g.NumNodes()))
		want, wantD := AStar(g, src, dst)
		got, d := s.AStar(g, src, dst, buf[:1])
		if d != wantD || !slices.Equal(got[1:], want) || got[0] != -7 {
			t.Fatalf("query %d: scratch AStar(%d,%d) = %v %v, fresh %v %v", q, src, dst, got, d, want, wantD)
		}
		buf = got
		s.DistancesTo(g, dst, 3, []NodeID{src, dst, 0}, out)
	}
}

// TestAStarExactOnAnyWeights routes over text networks that break the
// plain straight-line heuristic. In the first the weights are far below
// the straight-line length of their edges, as a loader may take them:
// 0 → 1 is a direct 10 km street, and 0 → 2 → 1 detours 50 km out on two
// 1 km links. The unscaled heuristic keys node 2 at 1 + 51 and settles 1
// at 10 through the direct street; scaled by the graph's slope it finds
// the 2 km path, as ShortestPath does. In the second, node 1 of the 2 km
// path lies at infinity, so the graph has no slope and no heuristic; the
// loaders refuse such a node, so it is built through the Graph API.
func TestAStarExactOnAnyWeights(t *testing.T) {
	g, err := ReadText(strings.NewReader(`N 0 0 0
N 1 10 0
N 2 0 50
N 3 13 4
E 0 1 10
E 0 2 1
E 2 1 1
B 1 3 5
`))
	if err != nil {
		t.Fatal(err)
	}
	inf := New(3)
	inf.AddNode(geo.Point{})
	inf.AddNode(geo.Point{X: math.Inf(1)})
	inf.AddNode(geo.Point{X: 1})
	for _, e := range [][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
		if err := inf.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []*Graph{g, inf} {
		s := NewScratch(g)
		for src := NodeID(0); int(src) < g.NumNodes(); src++ {
			for dst := NodeID(0); int(dst) < g.NumNodes(); dst++ {
				_, want := ShortestPath(g, src, dst)
				path, got := s.AStar(g, src, dst, nil)
				if got != want {
					t.Errorf("slope %v: AStar(%d,%d) = %v along %v, ShortestPath %v", g.slope(), src, dst, got, path, want)
				}
			}
		}
	}
}

// TestSlopeTracksEdges pins the graph's slope bookkeeping: unset on the
// zero-value graph and while every edge joins coincident nodes, the least
// w/|uv| (less the slack) once one does not, copied by Clone, never raised
// by SplitEdge, and 0 once an edge lies at infinity.
func TestSlopeTracksEdges(t *testing.T) {
	var g Graph
	if a := g.slope(); a != 0 {
		t.Fatalf("zero-value graph slope = %v, want 0", a)
	}
	a := g.AddNode(geo.Point{})
	b := g.AddNode(geo.Point{})
	c := g.AddNode(geo.Point{X: 3, Y: 4})
	_ = g.AddBidirectional(a, b, 1)
	if s := g.slope(); s != 0 {
		t.Fatalf("slope with coincident ends only = %v, want 0", s)
	}
	_ = g.AddEdge(b, c, 10) // 2 per km
	_ = g.AddEdge(c, a, 2.5)
	want := 0.5 * (1 - slopeSlack)
	if s := g.slope(); s != want {
		t.Fatalf("slope = %v, want %v", s, want)
	}
	if s := g.Clone().slope(); s != want {
		t.Fatalf("clone slope = %v, want %v", s, want)
	}
	if _, err := g.SplitEdge(b, c, 0.25); err != nil {
		t.Fatal(err)
	}
	if s := g.slope(); s > want {
		t.Fatalf("slope after SplitEdge = %v, above %v", s, want)
	}
	far := g.AddNode(geo.Point{X: math.Inf(1)})
	_ = g.AddEdge(c, far, 1)
	if s := g.slope(); s != 0 {
		t.Fatalf("slope with an edge to infinity = %v, want 0", s)
	}
}
