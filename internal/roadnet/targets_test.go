package roadnet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"netclus/internal/geo"
)

// TestDistancesToMatchesBounded pins DistancesTo to Bounded: every target
// gets the bit-identical distance Bounded maps it to, or +Inf exactly when
// Bounded does not reach it — across radii, duplicate targets, the source
// itself as a target, and targets outside the radius. Each query is also
// run at every radius where the key bound is tightest: exactly a target's
// Bounded distance, and one ulp below it.
func TestDistancesToMatchesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := euclidGraph(rng, 40+rng.Intn(80))
		s := NewScratch(g)
		ref := NewScratch(g)
		for q := 0; q < 50; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			radius := rng.Float64() * 8
			if q%10 == 0 {
				radius = -1
			}
			targets := make([]NodeID, 1+rng.Intn(7))
			for i := range targets {
				targets[i] = NodeID(rng.Intn(g.NumNodes()))
			}
			if q%3 == 0 {
				targets[0] = src
			}
			if len(targets) > 1 && q%4 == 0 {
				targets[1] = targets[len(targets)-1]
			}
			label := fmt.Sprintf("trial %d query %d", trial, q)
			sameAsBounded(t, label, s, ref, g, src, radius, targets)
			for _, r := range tightRadii(ref, g, src, targets) {
				sameAsBounded(t, label, s, ref, g, src, r, targets)
			}
		}
	}
}

// sameAsBounded runs DistancesTo and Bounded at one radius and fails on
// any target whose distances differ in a bit.
func sameAsBounded(t *testing.T, label string, s, ref *DijkstraScratch, g *Graph, src NodeID, radius float64, targets []NodeID) {
	t.Helper()
	out := make([]float64, len(targets))
	s.DistancesTo(g, src, radius, targets, out)
	want := ref.Bounded(g, src, Forward, radius)
	for i, v := range targets {
		if w := want.Get(v); math.Float64bits(out[i]) != math.Float64bits(w) {
			t.Fatalf("%s, radius %v: target %d (node %d) = %v, Bounded %v", label, radius, i, v, out[i], w)
		}
	}
}

// tightRadii lists, for every target an unbounded search reaches, its
// Bounded distance and the float one ulp below it: the radii at which a key
// bound that rounds the wrong way would drop the target.
func tightRadii(ref *DijkstraScratch, g *Graph, src NodeID, targets []NodeID) []float64 {
	all := ref.Bounded(g, src, Forward, -1)
	var out []float64
	for _, v := range targets {
		if d := all.Get(v); !math.IsInf(d, 1) {
			out = append(out, d, math.Nextafter(d, math.Inf(-1)))
		}
	}
	return out
}

func TestDistancesToInvalidSource(t *testing.T) {
	g := euclidGraph(rand.New(rand.NewSource(1)), 10)
	out := []float64{0, 0}
	NewScratch(g).DistancesTo(g, -1, 5, []NodeID{0, 1}, out)
	for i, d := range out {
		if !math.IsInf(d, 1) {
			t.Errorf("target %d from an invalid source = %v, want +Inf", i, d)
		}
	}
}

// TestScratchSizeIsWholeLinePairs guards DijkstraScratch's padding: a new
// field must re-pad the struct to a multiple of 128 bytes.
func TestScratchSizeIsWholeLinePairs(t *testing.T) {
	if n := unsafe.Sizeof(DijkstraScratch{}); n%128 != 0 {
		t.Fatalf("DijkstraScratch is %d bytes; pad it to a multiple of 128", n)
	}
}

// FuzzDistancesTo holds the goal-directed target search to Bounded, bit for
// bit, on fuzzer-built graphs where its heuristic is easiest to get wrong:
// weights from a sixteenth of the straight-line length up to twice it (so
// the slope sits far below 1), nodes on a coarse grid so that many
// coincide, one-way and two-way streets, a node at infinity, duplicate and
// invalid targets, the source among the targets, and radius -1. Every input
// is also searched at each reached target's Bounded distance and one ulp
// below it, where the key bound is tightest. A second search on the same
// scratch must not see the first.
func FuzzDistancesTo(f *testing.F) {
	f.Add(uint8(6), uint8(0), int16(-1), []byte{0, 0, 4, 0, 8, 0, 8, 4, 0, 4, 4, 4}, []byte{0, 1, 47, 1, 2, 1, 2, 3, 40, 3, 4, 15, 4, 5, 33, 5, 0, 0, 0, 2, 16}, []byte{3, 3, 5, 0})
	f.Add(uint8(4), uint8(1), int16(12), []byte{1, 1, 1, 1, 9, 9, 1, 1}, []byte{0, 1, 32, 1, 2, 0, 2, 3, 63, 3, 0, 7}, []byte{0, 2, 3, 4, 255})
	f.Add(uint8(30), uint8(7), int16(40), []byte{}, []byte{0, 1, 1, 2, 3, 2}, []byte{1, 2})
	f.Add(uint8(5), uint8(0), int16(-1), []byte{0, 0, 4, 0, 255, 3, 8, 0, 4, 4}, []byte{0, 1, 40, 1, 3, 40, 3, 4, 40, 1, 2, 40}, []byte{3, 4, 5})
	f.Fuzz(func(t *testing.T, nodes, src uint8, radiusTenths int16, coords, edges, targets []byte) {
		n := int(nodes)%48 + 1
		g := New(n)
		for i := 0; i < n; i++ {
			var x, y byte
			if 2*i+1 < len(coords) {
				x, y = coords[2*i], coords[2*i+1]
			}
			p := geo.Point{X: float64(x%16) / 4, Y: float64(y%16) / 4}
			if x == 255 {
				p.X = math.Inf(1) // AddEdge refuses its edges' weights: an isolated node at infinity
			}
			g.AddNode(p)
		}
		for ; len(edges) >= 3; edges = edges[3:] {
			u, v, k := NodeID(int(edges[0])%n), NodeID(int(edges[1])%n), edges[2]
			w := g.Point(u).Dist(g.Point(v)) * float64(k%32+1) / 16
			if w == 0 {
				w = float64(k%32+1) / 64
			}
			if g.AddEdge(u, v, w) == nil && k&32 != 0 {
				_ = g.AddEdge(v, u, w)
			}
		}
		var tg []NodeID
		for _, b := range targets[:min(len(targets), 8)] {
			tg = append(tg, NodeID(int(b)%(n+2))-1) // -1 and n are invalid
		}
		radius := float64(radiusTenths) / 10
		if radiusTenths < 0 {
			radius = -1
		}
		s, ref := NewScratch(g), NewScratch(g)
		for _, from := range []NodeID{NodeID(int(src) % n), NodeID((int(src) + 1) % n)} {
			label := fmt.Sprintf("from %d", from)
			sameAsBounded(t, label, s, ref, g, from, radius, tg)
			for _, r := range tightRadii(ref, g, from, tg) {
				sameAsBounded(t, label, s, ref, g, from, r, tg)
			}
		}
	})
}

// roadGrid is a road-like test network: a side×side lattice at spacing km,
// nodes jittered by up to 30 % of the spacing, streets drawn at 1.05–1.3×
// their straight-line length, 8 % of them dropped, 10 % one-way, and an
// occasional diagonal.
func roadGrid(rng *rand.Rand, side int, spacing float64) *Graph {
	g := New(side * side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			g.AddNode(geo.Point{
				X: (float64(x) + (rng.Float64()-0.5)*0.6) * spacing,
				Y: (float64(y) + (rng.Float64()-0.5)*0.6) * spacing,
			})
		}
	}
	street := func(u, v NodeID) {
		if rng.Float64() < 0.08 {
			return
		}
		f := 1.05 + rng.Float64()*0.25
		if rng.Float64() < 0.1 {
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			_ = g.AddEdgeEuclid(u, v, f)
			return
		}
		_ = g.AddEdgeEuclid(u, v, f)
		_ = g.AddEdgeEuclid(v, u, f)
	}
	id := func(x, y int) NodeID { return NodeID(y*side + x) }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				street(id(x, y), id(x+1, y))
			}
			if y+1 < side {
				street(id(x, y), id(x, y+1))
			}
			if x+1 < side && y+1 < side && rng.Float64() < 0.08 {
				street(id(x, y), id(x+1, y+1))
			}
		}
	}
	return g
}

// plainDistancesTo is DistancesTo as it was before it was goal-directed,
// frozen: Dijkstra from src that stops once every distinct target is
// settled. It leaves its distances and touched list in s.
func plainDistancesTo(s *DijkstraScratch, g *Graph, src NodeID, radius float64, targets []NodeID, out []float64) {
	out = out[:len(targets)]
	left := 0
	for i, t := range targets {
		out[i] = math.Inf(1)
		if !slices.Contains(targets[:i], t) {
			left++
		}
	}
	s.grow(g.NumNodes())
	s.reset()
	if !g.valid(src) || left == 0 {
		return
	}
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	s.heap.push(pqItem{node: src, dist: 0})
	for !s.heap.empty() {
		it := s.heap.pop()
		v := it.node
		if s.visited[v] {
			continue
		}
		s.visited[v] = true
		hit := false
		for i, t := range targets {
			if t == v {
				out[i] = it.dist
				hit = true
			}
		}
		if hit {
			if left--; left == 0 {
				return
			}
		}
		for _, e := range g.out[v] {
			nd := it.dist + e.w
			if radius >= 0 && nd > radius {
				continue
			}
			if nd < s.dist[e.to] {
				if math.IsInf(s.dist[e.to], 1) {
					s.touched = append(s.touched, e.to)
				}
				s.dist[e.to] = nd
				s.heap.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
}

// settled counts the nodes the last search on s settled.
func settled(s *DijkstraScratch) int {
	n := 0
	for _, v := range s.touched {
		if s.visited[v] {
			n++
		}
	}
	return n
}

// TestDistancesToTouchesFewerNodes is the goal-directed search's work
// gate, counted rather than timed so that it cannot drift with the host.
// It draws searches the way the map matcher does (mapmatch's defaults):
// the targets are the ≤ 6 nodes within 0.3 km nearest a point, the sources
// the ≤ 6 nearest a point 0.15 km before it, and the radius is
// 3·0.15 + 4·0.3 km. Each search must touch no more nodes than the frozen
// stop-at-last-target Dijkstra and report its distances bit for bit, and
// in total it must touch at least minShare fewer.
func TestDistancesToTouchesFewerNodes(t *testing.T) {
	const (
		side, spacing = 40, 0.1
		step, cand    = 0.15, 0.3
		minShare      = 0.35 // measured 0.413 on this seed
	)
	rng := rand.New(rand.NewSource(40))
	g := roadGrid(rng, side, spacing)
	nearest := func(p geo.Point) []NodeID {
		var ids []NodeID
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if g.Point(v).Dist(p) <= cand {
				ids = append(ids, v)
			}
		}
		slices.SortFunc(ids, func(a, b NodeID) int { return cmp.Compare(g.Point(a).Dist(p), g.Point(b).Dist(p)) })
		return ids[:min(len(ids), 6)]
	}
	s, ref := NewScratch(g), NewScratch(g)
	out, want := make([]float64, 6), make([]float64, 6)
	var searches, goal, plain, goalSettled, plainSettled int
	span := float64(side-1) * spacing
	for q := 0; q < 300; q++ {
		p := geo.Point{X: 0.5 + rng.Float64()*(span-1), Y: 0.5 + rng.Float64()*(span-1)}
		a := rng.Float64() * 2 * math.Pi
		prev := geo.Point{X: p.X - step*math.Cos(a), Y: p.Y - step*math.Sin(a)}
		targets := nearest(p)
		for _, src := range nearest(prev) {
			s.DistancesTo(g, src, 3*step+4*cand, targets, out)
			plainDistancesTo(ref, g, src, 3*step+4*cand, targets, want)
			for i := range targets {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("search %d from %d: target %d = %v, plain Dijkstra %v", searches, src, targets[i], out[i], want[i])
				}
			}
			if len(s.touched) > len(ref.touched) {
				t.Errorf("search %d from %d touched %d nodes, plain Dijkstra %d", searches, src, len(s.touched), len(ref.touched))
			}
			searches++
			goal += len(s.touched)
			plain += len(ref.touched)
			goalSettled += settled(s)
			plainSettled += settled(ref)
		}
	}
	share := 1 - float64(goal)/float64(plain)
	t.Logf("%d searches: touched %.1f → %.1f per search (−%.1f %%), settled %.1f → %.1f",
		searches, float64(plain)/float64(searches), float64(goal)/float64(searches), 100*share,
		float64(plainSettled)/float64(searches), float64(goalSettled)/float64(searches))
	if share < minShare {
		t.Fatalf("goal-directed searches touched %.1f %% fewer nodes than plain Dijkstra, want at least %.0f %%", 100*share, 100*minShare)
	}
}
