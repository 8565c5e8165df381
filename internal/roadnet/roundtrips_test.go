package roadnet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netclus/internal/geo"
)

// referenceBounded is Bounded as it was before it shared RoundTrips' search
// loop, frozen as an oracle with arrays of its own.
func referenceBounded(g *Graph, src NodeID, dir Direction, radius float64) SearchResult {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	visited := make([]bool, g.NumNodes())
	var h distHeap
	res := SearchResult{Dist: make(map[NodeID]float64)}
	if !g.valid(src) {
		return res
	}
	dist[src] = 0
	h.push(pqItem{node: src, dist: 0})
	for !h.empty() {
		it := h.pop()
		v := it.node
		if visited[v] {
			continue
		}
		visited[v] = true
		res.Nodes = append(res.Nodes, v)
		res.Dist[v] = it.dist
		relax := func(to NodeID, w float64) bool {
			nd := it.dist + w
			if radius >= 0 && nd > radius {
				return true
			}
			if nd < dist[to] {
				dist[to] = nd
				h.push(pqItem{node: to, dist: nd})
			}
			return true
		}
		if dir == Forward {
			g.Neighbors(v, relax)
		} else {
			g.InNeighbors(v, relax)
		}
	}
	return res
}

// referenceRoundTrips is the map-based search RoundTrips replaced, frozen
// verbatim as the differential oracle: two bounded searches of radius twoR,
// joined on their distance maps.
func referenceRoundTrips(g *Graph, src NodeID, twoR float64) map[NodeID]float64 {
	fwd := referenceBounded(g, src, Forward, twoR)
	rev := referenceBounded(g, src, Reverse, twoR)
	out := make(map[NodeID]float64, len(fwd.Nodes)/2+1)
	for v, df := range fwd.Dist {
		if db, ok := rev.Dist[v]; ok {
			if rt := df + db; rt <= twoR {
				out[v] = rt
			}
		}
	}
	return out
}

// checkRoundTrips fails t unless got holds exactly the nodes of the map
// reference, once each, with bit-equal round trips.
func checkRoundTrips(t testing.TB, g *Graph, src NodeID, twoR float64, got []NodeDr) {
	t.Helper()
	want := referenceRoundTrips(g, src, twoR)
	if len(got) != len(want) {
		t.Fatalf("src %d, 2R %v: %d nodes, reference %d", src, twoR, len(got), len(want))
	}
	seen := make(map[NodeID]bool, len(got))
	for _, u := range got {
		w, ok := want[u.Node]
		if !ok || seen[u.Node] {
			t.Fatalf("src %d, 2R %v: node %d reported (in reference %v, repeated %v)", src, twoR, u.Node, ok, seen[u.Node])
		}
		seen[u.Node] = true
		if math.Float64bits(u.Dr) != math.Float64bits(w) {
			t.Fatalf("src %d, 2R %v: dr(%d) = %v, reference %v", src, twoR, u.Node, u.Dr, w)
		}
	}
}

// checkBounded fails t unless Bounded settles the frozen search's nodes in
// the same order, at bit-equal distances.
func checkBounded(t testing.TB, s *DijkstraScratch, g *Graph, src NodeID, dir Direction, radius float64) {
	t.Helper()
	got, want := s.Bounded(g, src, dir, radius), referenceBounded(g, src, dir, radius)
	if !slices.Equal(got.Nodes, want.Nodes) || len(got.Dist) != len(want.Dist) {
		t.Fatalf("src %d, dir %d, radius %v: settled %v, reference %v", src, dir, radius, got.Nodes, want.Nodes)
	}
	for v, d := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(d) {
			t.Fatalf("src %d, dir %d, radius %v: d(%d) = %v, reference %v", src, dir, radius, v, got.Dist[v], d)
		}
	}
}

// addZeroEdge inserts a weight-0 edge, which AddEdge rejects but which the
// searches must still handle: equal-distance ties are where a settled
// distance could diverge between two search orders.
func addZeroEdge(g *Graph, u, v NodeID) {
	g.out[u] = append(g.out[u], halfEdge{to: v, w: 0})
	g.in[v] = append(g.in[v], halfEdge{to: u, w: 0})
	g.nEdg++
}

// roughGraph is a random graph with one-way edges only, a few zero-weight
// edges (some of them both ways), and a second part no edge joins to the
// first. With integral set, the other weights are 1, 2 or 3 km, so nodes
// sit exactly on integral radii.
func roughGraph(rng *rand.Rand, n int, integral bool) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	half := n / 2
	part := func(v int) (int, int) {
		if v < half {
			return 0, half
		}
		return half, n
	}
	for i := 0; i < 3*n; i++ {
		u := rng.Intn(n)
		lo, hi := part(u)
		v := lo + rng.Intn(hi-lo)
		if u == v {
			continue
		}
		switch {
		case rng.Intn(12) == 0:
			addZeroEdge(g, NodeID(u), NodeID(v))
			if rng.Intn(2) == 0 {
				addZeroEdge(g, NodeID(v), NodeID(u))
			}
		case integral:
			_ = g.AddEdge(NodeID(u), NodeID(v), float64(1+rng.Intn(3)))
		default:
			_ = g.AddEdge(NodeID(u), NodeID(v), 0.1+rng.Float64()*3)
		}
	}
	return g
}

// TestRoundTripsMatchesMapReference pins RoundTrips to the map-based search
// it replaced: the same node set and bit-equal dr, on graphs with one-way
// and zero-weight edges and disconnected parts, at radii from 0 to past the
// diameter and on exact ties, reusing one scratch and one output buffer
// throughout. Bounded, which shares RoundTrips' search loop, must match its
// own frozen form on the same queries, settle order included.
func TestRoundTripsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		var g *Graph
		switch trial % 3 {
		case 0:
			g = roughGraph(rng, 20+rng.Intn(60), false)
		case 1:
			g = roughGraph(rng, 20+rng.Intn(60), true)
		default:
			g = euclidGraph(rng, 20+rng.Intn(60))
		}
		s := NewScratch(g)
		var out []NodeDr
		for q := 0; q < 40; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			var twoR float64
			switch q % 5 {
			case 0:
				twoR = 0
			case 1:
				twoR = 1e9 // past any diameter
			case 2:
				twoR = float64(rng.Intn(12)) // on the integral graphs' ties
			default:
				twoR = rng.Float64() * 20
			}
			out = s.RoundTrips(g, src, twoR, out)
			checkRoundTrips(t, g, src, twoR, out)
			checkBounded(t, s, g, src, Direction(q%2), twoR)
		}
		checkBounded(t, s, g, 0, Forward, -1)
	}
}

func TestRoundTripsInvalidSourceAndNegativeRadius(t *testing.T) {
	g := euclidGraph(rand.New(rand.NewSource(1)), 10)
	s := NewScratch(g)
	if got := s.RoundTrips(g, -1, 5, nil); len(got) != 0 {
		t.Errorf("invalid source: %v", got)
	}
	if got := s.RoundTrips(g, 0, -1, nil); len(got) != 0 {
		t.Errorf("negative radius: %v", got)
	}
}

// TestRoundTripsZeroAllocs gates RoundTrips' steady state: once the output
// buffer, the heap and the touched list have grown, a search allocates
// nothing.
func TestRoundTripsZeroAllocs(t *testing.T) {
	g := euclidGraph(rand.New(rand.NewSource(4)), 500)
	s := NewScratch(g)
	// Warm on the widest search so every buffer reaches its final size.
	out := s.RoundTrips(g, 0, 1e9, nil)
	if len(out) != g.NumNodes() {
		t.Fatalf("unbounded warm-up reached %d of %d nodes", len(out), g.NumNodes())
	}
	src := NodeID(0)
	avg := testing.AllocsPerRun(100, func() {
		out = s.RoundTrips(g, src, 4, out)
		src = (src + 37) % NodeID(g.NumNodes())
	})
	if avg != 0 {
		t.Fatalf("RoundTrips allocates %.2f objects per call, want 0", avg)
	}
}

// FuzzRoundTrips runs the differentials of TestRoundTripsMatchesMapReference
// on graphs decoded from the fuzzer's bytes: each 4-byte group is an edge
// (from, to, weight in tenths of a kilometre, where 0 is a zero-weight
// edge), so ties, one-way streets and unreachable nodes all come up.
func FuzzRoundTrips(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint16(40), []byte{0, 1, 10, 0, 1, 2, 0, 0, 2, 0, 5, 0, 3, 4, 1, 0})
	f.Add(uint8(3), uint8(2), uint16(0), []byte{0, 1, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(16), uint8(5), uint16(65535), []byte{})
	f.Fuzz(func(t *testing.T, nodes, src uint8, twoRTenths uint16, edges []byte) {
		n := int(nodes)%64 + 1
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode(geo.Point{})
		}
		for ; len(edges) >= 4; edges = edges[4:] {
			u, v := NodeID(int(edges[0])%n), NodeID(int(edges[1])%n)
			if u == v {
				continue
			}
			if w := float64(binary.LittleEndian.Uint16(edges[2:])) / 10; w == 0 {
				addZeroEdge(g, u, v)
			} else {
				_ = g.AddEdge(u, v, w)
			}
		}
		s := NewScratch(g)
		twoR := float64(twoRTenths) / 10
		out := s.RoundTrips(g, NodeID(int(src)%n), twoR, nil)
		checkRoundTrips(t, g, NodeID(int(src)%n), twoR, out)
		// A second search on the same scratch must not see the first.
		other := NodeID((int(src) + 1) % n)
		checkRoundTrips(t, g, other, twoR, s.RoundTrips(g, other, twoR, out))
		checkBounded(t, s, g, other, Forward, twoR)
		checkBounded(t, s, g, other, Reverse, twoR)
	})
}
