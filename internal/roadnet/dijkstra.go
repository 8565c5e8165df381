package roadnet

import (
	"math"
	"slices"
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
	// The heap and touched headers are written on every push, and the
	// scratches of a matcher pool or of build workers are allocated back
	// to back. Padding the struct to 128 bytes, a size class whose objects
	// are 128-byte aligned, keeps any two of them off a shared cache line
	// (and off an adjacent-line prefetch pair). At 96 bytes two scratches
	// could share a line, and a process then matched ≈ 1.5× slower for
	// its whole life (EXPERIMENTS.md, the ingest pool bisect).
	_ [8]byte
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
	s.settle(g, src, dir, radius, &res.Nodes)
	res.Dist = make(map[NodeID]float64, len(res.Nodes))
	for _, v := range res.Nodes {
		res.Dist[v] = s.dist[v]
	}
	return res
}

// DistancesTo runs a forward Dijkstra from src bounded by radius, as
// Bounded does, but reports only the given targets: out[i] becomes the
// distance of targets[i], or +Inf when it is not settled within radius. It
// stops as soon as every distinct target is settled. Up to that point the
// heap sees exactly Bounded's pushes and pops, so every reported distance
// is bit-identical to the one Bounded would map the target to. out must be
// at least as long as targets. DistancesTo allocates nothing once the heap
// and the touched list have grown.
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
// relation of the GDSP clustering (Problem 2 in the paper). It runs a
// forward and a reverse search of radius twoR on the scratch's arrays: the
// forward pass is read off the touched list, and the reverse pass filters it
// in place. Each dr is the sum of the distances Bounded maps v to in the two
// directions. Nodes come in the forward search's discovery order.
// RoundTrips allocates nothing once out, the heap and the touched list have
// grown.
func (s *DijkstraScratch) RoundTrips(g *Graph, src NodeID, twoR float64, out []NodeDr) []NodeDr {
	out = out[:0]
	s.settle(g, src, Forward, twoR, nil)
	for _, v := range s.touched {
		out = append(out, NodeDr{Node: v, Dr: s.dist[v]})
	}
	s.settle(g, src, Reverse, twoR, nil)
	kept := out[:0]
	for _, nd := range out {
		// Untouched nodes read +Inf, so unreached ones drop out here too.
		if rt := nd.Dr + s.dist[nd.Node]; rt <= twoR {
			kept = append(kept, NodeDr{Node: nd.Node, Dr: rt})
		}
	}
	return kept
}

// settle runs Dijkstra from src following dir until every node within
// radius is settled, leaving the distances in s.dist and the reached nodes
// in s.touched. Every touched node is settled, at its s.dist. A non-nil
// order receives the nodes in the order they settle, which is
// non-decreasing distance.
func (s *DijkstraScratch) settle(g *Graph, src NodeID, dir Direction, radius float64, order *[]NodeID) {
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
			if nd > radius {
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
