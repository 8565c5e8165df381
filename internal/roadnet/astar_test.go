package roadnet

import (
	"math"
	"math/rand"
	"slices"
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
