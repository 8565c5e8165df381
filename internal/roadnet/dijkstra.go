package roadnet

import (
	"math"
	"slices"

	"netclus/internal/geo"
)

// Direction selects which adjacency a shortest-path search follows.
type Direction int

const (
	// Forward computes d(src, v) for all v.
	Forward Direction = iota
	// Reverse computes d(v, src) for all v by following in-edges.
	Reverse
)

// Unreachable is the distance reported for nodes a search did not reach.
func Unreachable() float64 { return math.Inf(1) }

// pqItem is an entry of the binary heap used by Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// distHeap is a minimal binary min-heap over pqItem specialized to avoid
// the interface indirection of container/heap in the hottest loop of the
// system (millions of Dijkstra runs during index construction).
type distHeap struct {
	items []pqItem
}

func (h *distHeap) push(it pqItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *distHeap) pop() pqItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < last && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

func (h *distHeap) empty() bool { return len(h.items) == 0 }

// SearchResult holds the outcome of a (possibly bounded) Dijkstra run in a
// sparse form: only reached nodes appear.
type SearchResult struct {
	// Nodes lists the settled nodes in non-decreasing distance order.
	Nodes []NodeID
	// Dist maps each settled node to its distance from (or to) the source.
	Dist map[NodeID]float64
}

// Get returns the distance of v, or +Inf when v was not reached.
func (r *SearchResult) Get(v NodeID) float64 {
	if d, ok := r.Dist[v]; ok {
		return d
	}
	return math.Inf(1)
}

// DijkstraScratch is reusable working memory for repeated searches over the
// same graph, eliminating allocation in index-construction loops and in the
// map matcher. A scratch must not be used concurrently.
type DijkstraScratch struct {
	dist    []float64
	visited []bool
	// prev is AStar's predecessor array. Only entries whose dist was set in
	// the current run are meaningful, so reset leaves it alone.
	prev    []NodeID
	touched []NodeID
	heap    distHeap
	// back holds RoundTrips' reverse distances while its forward search
	// runs and is all +Inf otherwise; backTouched lists the entries set.
	back        []float64
	backTouched []NodeID
	// The heap and touched headers are written on every push, and the
	// scratches of a matcher pool or of build workers are allocated back
	// to back. Padding the struct to 256 bytes, a size class whose objects
	// are 256-byte aligned, keeps any two of them off a shared cache line
	// (and off an adjacent-line prefetch pair). At 96 bytes two scratches
	// could share a line, and a process then matched ≈ 1.5× slower for
	// its whole life (EXPERIMENTS.md, the ingest pool bisect).
	_ [88]byte
}

// NewScratch sizes scratch space for graph g.
func NewScratch(g *Graph) *DijkstraScratch {
	n := g.NumNodes()
	s := &DijkstraScratch{
		dist:    make([]float64, n),
		visited: make([]bool, n),
		prev:    make([]NodeID, n),
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
	return s
}

// grow adapts scratch arrays after graph mutation (e.g. SplitEdge).
func (s *DijkstraScratch) grow(n int) {
	for len(s.dist) < n {
		s.dist = append(s.dist, math.Inf(1))
		s.visited = append(s.visited, false)
		s.prev = append(s.prev, 0)
	}
}

// reset clears only the entries touched by the previous run.
func (s *DijkstraScratch) reset() {
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
		s.visited[v] = false
	}
	s.touched = s.touched[:0]
	s.heap.items = s.heap.items[:0]
}

// Bounded runs Dijkstra from src following dir, stopping once every node
// within radius has been settled. Nodes strictly farther than radius are not
// reported. A negative radius means unbounded. The result shares no state
// with the scratch and remains valid after further searches.
func (s *DijkstraScratch) Bounded(g *Graph, src NodeID, dir Direction, radius float64) SearchResult {
	if radius < 0 {
		radius = math.Inf(1)
	}
	var res SearchResult
	s.settle(g, src, dir, radius, &res.Nodes, nil, 0)
	res.Dist = make(map[NodeID]float64, len(res.Nodes))
	for _, v := range res.Nodes {
		res.Dist[v] = s.dist[v]
	}
	return res
}

// DistancesTo runs a forward search from src bounded by radius, as Bounded
// does, but reports only the given targets: out[i] becomes the distance of
// targets[i], or +Inf when it is not reached within radius. It stops as
// soon as every distinct target is settled, and every reported distance is
// bit-identical to the one Bounded maps the target to. out must be at
// least as long as targets. DistancesTo allocates nothing once the heap and
// the touched list have grown.
//
// The search is goal-directed (A*, Hart, Nilsson & Raphael 1968): the heap
// is keyed on g(v) + h(v), where g(v) is the distance found so far and
// h(v) = α·max(0, |v − c| − r), with c the targets' centroid, r their
// largest distance from c and α the graph's slope (Graph.slope). The radius
// still bounds g. Every target has h = 0 exactly, since r is the maximum
// of the same floats, so a target pops at key g and the early stop after
// the last one is Dijkstra's. h is consistent: max(0, |x − c| − r) changes
// by at most |uv| along an edge u → v, and α·|uv| ≤ w(u,v), so
// h(u) ≤ w(u,v) + h(v). Keys thus never decrease along a shortest path,
// and every node pops with its final g, as in Dijkstra. The search finds
// the same distances in a different order: it settles only the nodes whose
// g plus straight-line remainder to the targets' disc stays under the
// farthest target's distance, not the whole ball of that radius around src.
//
// That argument is exact arithmetic. In floats the lengths, the keys and
// the left-to-right path sums that are the distances all round, and a key
// an ulp too small could pop a node before the predecessor that gives it
// its shortest float distance, changing a reported distance in its last
// bit. The slope is therefore taken a factor (1 − 1e-9) below the graph's
// least w/|uv|: each edge then leaves h(u) at least 1e-9·w(u,v) below
// w(u,v) + h(v), more than the rounding of a key (a few ulps) whenever the
// edge is longer than about a millionth of the distances searched. With no
// slope (α = 0) the search is plain Dijkstra.
func (s *DijkstraScratch) DistancesTo(g *Graph, src NodeID, radius float64, targets []NodeID, out []float64) {
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
	a, c, r := targetDisc(g, targets)
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	s.heap.push(pqItem{node: src, dist: 0})
	for !s.heap.empty() {
		v := s.heap.pop().node
		if s.visited[v] {
			continue
		}
		s.visited[v] = true
		gv := s.dist[v]
		hit := false
		for i, t := range targets {
			if t == v {
				out[i] = gv
				hit = true
			}
		}
		if hit {
			if left--; left == 0 {
				return
			}
		}
		for _, e := range g.out[v] {
			nd := gv + e.w
			if radius >= 0 && nd > radius {
				continue
			}
			if nd < s.dist[e.to] {
				if math.IsInf(s.dist[e.to], 1) {
					s.touched = append(s.touched, e.to)
				}
				s.dist[e.to] = nd
				key := nd
				if a > 0 {
					if x := g.pts[e.to].Dist(c) - r; x > 0 {
						key += a * x
					}
				}
				s.heap.push(pqItem{node: e.to, dist: key})
			}
		}
	}
}

// targetDisc returns DistancesTo's heuristic: the slope a, the centroid c
// of the valid targets and their largest distance r from it. a is 0 (no
// heuristic) when the graph has no slope or no target is valid. A target
// at infinity makes r NaN or +Inf, so that no |v − c| − r is positive and
// the search runs as plain Dijkstra.
func targetDisc(g *Graph, targets []NodeID) (a float64, c geo.Point, r float64) {
	a = g.slope()
	if a == 0 {
		return 0, c, 0
	}
	n := 0
	for _, t := range targets {
		if g.valid(t) {
			c.X += g.pts[t].X
			c.Y += g.pts[t].Y
			n++
		}
	}
	if n == 0 {
		return 0, c, 0
	}
	c.X /= float64(n)
	c.Y /= float64(n)
	for _, t := range targets {
		if g.valid(t) {
			r = max(r, g.pts[t].Dist(c))
		}
	}
	return a, c, r
}

// BoundedDijkstra is a convenience wrapper allocating fresh scratch.
func BoundedDijkstra(g *Graph, src NodeID, dir Direction, radius float64) SearchResult {
	return NewScratch(g).Bounded(g, src, dir, radius)
}

// Dijkstra computes exact distances from src to every reachable node
// (Forward) or from every node to src (Reverse). The returned slice is
// indexed by NodeID with +Inf marking unreachable nodes.
func Dijkstra(g *Graph, src NodeID, dir Direction) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if !g.valid(src) {
		return dist
	}
	visited := make([]bool, n)
	var h distHeap
	dist[src] = 0
	h.push(pqItem{node: src, dist: 0})
	for !h.empty() {
		it := h.pop()
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		relax := func(to NodeID, w float64) bool {
			nd := it.dist + w
			if nd < dist[to] {
				dist[to] = nd
				h.push(pqItem{node: to, dist: nd})
			}
			return true
		}
		if dir == Forward {
			g.Neighbors(it.node, relax)
		} else {
			g.InNeighbors(it.node, relax)
		}
	}
	return dist
}

// ShortestPath returns the node sequence of a shortest path src -> dst and
// its length, or (nil, +Inf) when dst is unreachable.
func ShortestPath(g *Graph, src, dst NodeID) ([]NodeID, float64) {
	n := g.NumNodes()
	if !g.valid(src) || !g.valid(dst) {
		return nil, math.Inf(1)
	}
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	visited := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = InvalidNode
	}
	var h distHeap
	dist[src] = 0
	h.push(pqItem{node: src, dist: 0})
	for !h.empty() {
		it := h.pop()
		if visited[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		visited[it.node] = true
		g.Neighbors(it.node, func(to NodeID, w float64) bool {
			nd := it.dist + w
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = it.node
				h.push(pqItem{node: to, dist: nd})
			}
			return true
		})
	}
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	var rev []NodeID
	for v := dst; v != InvalidNode; v = prev[v] {
		rev = append(rev, v)
	}
	path := make([]NodeID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, dist[dst]
}

// RoundTrip returns dr(u,v) = d(u,v) + d(v,u). It is symmetric by
// construction and +Inf when either direction is disconnected.
func RoundTrip(g *Graph, u, v NodeID) float64 {
	fwd := Dijkstra(g, u, Forward)
	if math.IsInf(fwd[v], 1) {
		return math.Inf(1)
	}
	back := Dijkstra(g, v, Forward)
	return fwd[v] + back[u]
}

// RoundTripsFrom returns dr(src, v) for every v, computed with one forward
// and one reverse search from src.
func RoundTripsFrom(g *Graph, src NodeID) []float64 {
	fwd := Dijkstra(g, src, Forward)
	rev := Dijkstra(g, src, Reverse)
	out := make([]float64, len(fwd))
	for i := range fwd {
		out[i] = fwd[i] + rev[i]
	}
	return out
}

// NodeDr pairs a node with its round-trip distance dr to a search source.
type NodeDr struct {
	Node NodeID
	Dr   float64
}

// RoundTrips appends to out[:0] every node v with dr(src,v) <= twoR, paired
// with dr(src,v), and returns the extended slice. This is the dominance
// relation of the GDSP clustering (Problem 2 in the paper). A reverse search
// records every distance back to src; the forward search of radius twoR then
// skips each relaxation whose distance plus the target's way back exceeds
// limit, a hair above twoR, so it enters little more than the nodes it
// reports instead of the whole ball of radius twoR. Each dr is the sum of
// the distances Bounded maps v to in the two directions; nodes come in no
// particular order. RoundTrips allocates nothing once out, the heap, the
// touched lists and the reverse-distance array have grown.
//
// The pruning changes no dr. Let p be v's parent in an unpruned forward
// search, so F(v) = fl(F(p)+w); the reverse search offers p fl(B(v)+w).
// Both round trips are the same exact sum rounded twice, so
// fl(F(p)+B(p)) ≤ fl(F(v)+B(v))·ρ with ρ = ((1+ε)/(1−ε))², ε = 2⁻⁵³. Every
// node on the tree path to a kept v is thus within twoR·ρ^|V| ≤ limit, the
// pruned search relaxes that path with the same floats, and v gets the same
// F(v); a node it never enters has a round trip above twoR anyway. Running
// the reverse search to limit rather than twoR changes no distance within
// twoR: its extra relaxations all exceed twoR.
func (s *DijkstraScratch) RoundTrips(g *Graph, src NodeID, twoR float64, out []NodeDr) []NodeDr {
	out = out[:0]
	n := g.NumNodes()
	// (1+ε)/(1−ε) < 1+2.0000001ε, so ρ^n < exp(4.0000002εn) ≤ 1+8εn for
	// εn ≤ 1/4; the factor 16 absorbs the rounding of limit itself.
	limit := twoR * (1 + 16*0x1p-53*float64(n))
	if len(s.back) < n {
		s.back = make([]float64, n)
		for i := range s.back {
			s.back[i] = math.Inf(1)
		}
		s.backTouched = make([]NodeID, 0, n)
	}
	s.settle(g, src, Reverse, limit, nil, nil, 0)
	for _, v := range s.touched {
		s.back[v] = s.dist[v]
	}
	s.backTouched = append(s.backTouched[:0], s.touched...)
	s.settle(g, src, Forward, twoR, nil, s.back, limit)
	for _, v := range s.touched {
		// Unreached nodes read +Inf in back, so they drop out here too.
		if rt := s.dist[v] + s.back[v]; rt <= twoR {
			out = append(out, NodeDr{Node: v, Dr: rt})
		}
	}
	for _, v := range s.backTouched {
		s.back[v] = math.Inf(1)
	}
	return out
}

// settle runs Dijkstra from src following dir until every node within
// radius is settled, leaving the distances in s.dist and the reached nodes
// in s.touched. Every touched node is settled, at its s.dist. A non-nil
// order receives the nodes in the order they settle, which is
// non-decreasing distance. A non-nil back also skips every relaxation to a
// node u whose distance plus back[u] exceeds limit.
func (s *DijkstraScratch) settle(g *Graph, src NodeID, dir Direction, radius float64, order *[]NodeID, back []float64, limit float64) {
	s.grow(g.NumNodes())
	s.reset()
	if !g.valid(src) {
		return
	}
	adj := g.out
	if dir == Reverse {
		adj = g.in
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
		if order != nil {
			*order = append(*order, v)
		}
		for _, e := range adj[v] {
			nd := it.dist + e.w
			if nd > radius || back != nil && nd+back[e.to] > limit {
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
