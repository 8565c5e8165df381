package roadnet

import "math"

// AStar returns a shortest path src -> dst using the Euclidean straight-line
// distance to dst, scaled by min(1, the graph's slope), as the heuristic.
// The slope is the least w(u,v)/|uv| over the graph's edges, taken a factor
// (1 − 1e-9) lower when it is below 1, so the heuristic never overestimates
// and the result is exact on any weights. On networks whose weights are at
// least the Euclidean length of their edges — every network internal/gen
// produces (Euclidean length times a curvature factor >= 1) — the factor is
// exactly 1 and the heuristic is the plain straight-line distance.
//
// AStar is a convenience wrapper allocating fresh scratch, as
// BoundedDijkstra is: loops that route many pairs over one graph (trajectory
// generation, the map matcher's gap completion) hold a DijkstraScratch and
// call its AStar, which is the one implementation.
func AStar(g *Graph, src, dst NodeID) ([]NodeID, float64) {
	return NewScratch(g).AStar(g, src, dst, nil)
}

// AStar appends a shortest path src -> dst (both ends included) to path and
// returns it with the path's length, or returns path unchanged and +Inf when
// dst is unreachable or either end is invalid. It is the package-level
// AStar run on the scratch's dense arrays — the distance array holds the g
// scores, the visited flags the closed set — so it allocates nothing once
// path and the heap have grown. Goal-directed search visits a small
// corridor of the network instead of a full Dijkstra ball.
func (s *DijkstraScratch) AStar(g *Graph, src, dst NodeID, path []NodeID) ([]NodeID, float64) {
	if !g.valid(src) || !g.valid(dst) {
		return path, math.Inf(1)
	}
	if src == dst {
		return append(path, src), 0
	}
	s.grow(g.NumNodes())
	s.reset()
	target := g.Point(dst)
	f := 1.0
	if g.steep > 1 {
		f = g.slope() // 0 with an edge at infinity: no heuristic
	}
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	s.heap.push(pqItem{node: src, dist: 0})
	for !s.heap.empty() {
		v := s.heap.pop().node
		if s.visited[v] {
			continue
		}
		if v == dst {
			break
		}
		s.visited[v] = true
		gv := s.dist[v]
		for _, e := range g.out[v] {
			if s.visited[e.to] {
				continue
			}
			if ng := gv + e.w; ng < s.dist[e.to] {
				if math.IsInf(s.dist[e.to], 1) {
					s.touched = append(s.touched, e.to)
				}
				s.dist[e.to] = ng
				s.prev[e.to] = v
				key := ng
				if f > 0 {
					key += f * g.Point(e.to).Dist(target)
				}
				s.heap.push(pqItem{node: e.to, dist: key})
			}
		}
	}
	d := s.dist[dst]
	if math.IsInf(d, 1) {
		return path, d
	}
	// Walk the predecessor chain back from dst, then reverse it in place.
	// Every node on the chain but src was relaxed in this run, so its prev
	// entry is current.
	base := len(path)
	for v := dst; ; v = s.prev[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	for i, j := base, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, d
}
