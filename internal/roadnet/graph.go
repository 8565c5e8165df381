// Package roadnet implements the directed, weighted road-network substrate
// on which the TOPS problem and the NETCLUS index are defined.
//
// The network G = (V, E) models road intersections as nodes and road
// segments as directed edges (one-way streets are single edges, two-way
// streets are edge pairs). Every node carries a planar coordinate in
// kilometres and every edge a positive length in kilometres, so all network
// distances are directly comparable with the coverage threshold τ and the
// cluster radii R used by the index.
//
// The package provides:
//
//   - adjacency-list graph construction and mutation, including the site
//     augmentation of the paper (§2): splitting an edge to host a candidate
//     site located mid-segment so that S ⊆ V always holds;
//   - forward and reverse Dijkstra, both unbounded and bounded by a radius
//     (the workhorse of covering-set computation and GDSP clustering);
//   - goal-directed (A*) searches, point to point and from one source to a
//     few targets (the map matcher's), exact on any weights because their
//     heuristic is scaled by the graph's slope;
//   - round-trip distances dr(u,v) = d(u,v) + d(v,u);
//   - Tarjan strongly-connected components, used to restrict synthetic
//     networks to their largest strongly connected core so that round trips
//     are well defined;
//   - a compact binary serialization.
package roadnet

import (
	"fmt"
	"math"

	"netclus/internal/geo"
)

// NodeID identifies a node (road intersection) within a Graph. IDs are dense
// indices in [0, NumNodes).
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// halfEdge is one directed adjacency entry.
type halfEdge struct {
	to NodeID
	w  float64 // length in km, > 0
}

// Graph is a directed weighted road network. The zero value is an empty
// graph ready for use. Graph is not safe for concurrent mutation; concurrent
// reads are safe.
type Graph struct {
	pts  []geo.Point
	out  [][]halfEdge
	in   [][]halfEdge
	nEdg int
	// steep is the largest |uv|/w(u,v) over the edges AddEdge has taken,
	// 0 while none has |uv| > 0 and +Inf once one has a NaN or infinite
	// length; 1/steep is the graph's slope (see slope). Removing an edge
	// leaves it alone, which can only make the slope smaller.
	steep float64
}

// slopeSlack shrinks the slope the searches scale straight-line distance
// by, so that the rounding of lengths, weights and heap keys cannot make a
// heuristic overestimate.
const slopeSlack = 1e-9

// slope returns α = (1 − slopeSlack)·min w(u,v)/|uv| over the edges with
// |uv| > 0, or 0 when there is none (or one lies at infinity): a lower bound
// on a network distance per kilometre of straight line, so α·|xy| ≤ d(x,y)
// for any nodes x, y. Loaders take weights as given, so α may be far below
// 1; on generated networks it is at least 1.
func (g *Graph) slope() float64 {
	if g.steep == 0 {
		return 0
	}
	return 1 / g.steep * (1 - slopeSlack)
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		pts: make([]geo.Point, 0, n),
		out: make([][]halfEdge, 0, n),
		in:  make([][]halfEdge, 0, n),
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns |E| (directed edges).
func (g *Graph) NumEdges() int { return g.nEdg }

// AddNode appends a node at point p and returns its id.
func (g *Graph) AddNode(p geo.Point) NodeID {
	id := NodeID(len(g.pts))
	g.pts = append(g.pts, p)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// finitePoint reports whether both coordinates are finite. The loaders
// reject any other node: an edge at a NaN or infinite point has no length,
// which leaves the graph without a slope and turns both goal-directed
// searches into plain Dijkstra.
func finitePoint(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// Point returns the planar coordinate of node v.
func (g *Graph) Point(v NodeID) geo.Point { return g.pts[v] }

// valid reports whether v is a node of g.
func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.pts) }

// AddEdge inserts the directed edge u -> v with weight w kilometres.
// It returns an error for invalid endpoints, self loops, or non-positive
// weights; parallel edges are permitted (the shorter one dominates in
// shortest-path computations).
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("roadnet: edge (%d,%d) has endpoint outside [0,%d)", u, v, len(g.pts))
	}
	if u == v {
		return fmt.Errorf("roadnet: self loop on node %d", u)
	}
	if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("roadnet: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	g.out[u] = append(g.out[u], halfEdge{to: v, w: w})
	g.in[v] = append(g.in[v], halfEdge{to: u, w: w})
	g.nEdg++
	if d := g.pts[u].Dist(g.pts[v]); d != 0 {
		r := d / w
		if math.IsNaN(r) {
			r = math.Inf(1)
		}
		g.steep = max(g.steep, r)
	}
	return nil
}

// AddBidirectional inserts u -> v and v -> u, both with weight w.
func (g *Graph) AddBidirectional(u, v NodeID, w float64) error {
	if err := g.AddEdge(u, v, w); err != nil {
		return err
	}
	return g.AddEdge(v, u, w)
}

// AddEdgeEuclid inserts a directed edge whose weight is the Euclidean
// distance between the endpoints scaled by factor (>= 1 models curvature of
// the actual road relative to the straight line).
func (g *Graph) AddEdgeEuclid(u, v NodeID, factor float64) error {
	w := g.pts[u].Dist(g.pts[v]) * factor
	if w == 0 {
		w = 1e-6 // coincident nodes: keep a tiny positive weight
	}
	return g.AddEdge(u, v, w)
}

// Neighbors invokes fn for every outgoing edge (v -> to, w). Iteration stops
// if fn returns false.
func (g *Graph) Neighbors(v NodeID, fn func(to NodeID, w float64) bool) {
	for _, e := range g.out[v] {
		if !fn(e.to, e.w) {
			return
		}
	}
}

// InNeighbors invokes fn for every incoming edge (from -> v, w).
func (g *Graph) InNeighbors(v NodeID, fn func(from NodeID, w float64) bool) {
	for _, e := range g.in[v] {
		if !fn(e.to, e.w) {
			return
		}
	}
}

// EdgeWeight returns the weight of the lightest directed edge u -> v, or
// +Inf when no such edge exists.
func (g *Graph) EdgeWeight(u, v NodeID) float64 {
	best := math.Inf(1)
	for _, e := range g.out[u] {
		if e.to == v && e.w < best {
			best = e.w
		}
	}
	return best
}

// HasEdge reports whether a directed edge u -> v exists.
func (g *Graph) HasEdge(u, v NodeID) bool { return !math.IsInf(g.EdgeWeight(u, v), 1) }

// removeEdge deletes one directed edge u -> v (the lightest if parallel
// edges exist). It reports whether an edge was removed.
func (g *Graph) removeEdge(u, v NodeID) bool {
	idx, best := -1, math.Inf(1)
	for i, e := range g.out[u] {
		if e.to == v && e.w < best {
			idx, best = i, e.w
		}
	}
	if idx < 0 {
		return false
	}
	g.out[u] = append(g.out[u][:idx], g.out[u][idx+1:]...)
	for i, e := range g.in[v] {
		if e.to == u && e.w == best {
			g.in[v] = append(g.in[v][:i], g.in[v][i+1:]...)
			break
		}
	}
	g.nEdg--
	return true
}

// SplitEdge implements the site augmentation of §2 of the paper: a candidate
// site located in the middle of road segment (u,v) becomes a new vertex w.
// The edge u -> v is removed and replaced by u -> w and w -> v with weights
// proportional to t ∈ (0,1); if the reverse edge v -> u also exists it is
// split symmetrically (two-way street). The new node is placed on the
// straight segment between the endpoints.
func (g *Graph) SplitEdge(u, v NodeID, t float64) (NodeID, error) {
	if !g.valid(u) || !g.valid(v) {
		return InvalidNode, fmt.Errorf("roadnet: split (%d,%d): invalid endpoint", u, v)
	}
	if t <= 0 || t >= 1 {
		return InvalidNode, fmt.Errorf("roadnet: split parameter %v outside (0,1)", t)
	}
	w := g.EdgeWeight(u, v)
	if math.IsInf(w, 1) {
		return InvalidNode, fmt.Errorf("roadnet: split (%d,%d): edge not found", u, v)
	}
	mid := g.AddNode(geo.Lerp(g.pts[u], g.pts[v], t))
	g.removeEdge(u, v)
	if err := g.AddEdge(u, mid, w*t); err != nil {
		return InvalidNode, err
	}
	if err := g.AddEdge(mid, v, w*(1-t)); err != nil {
		return InvalidNode, err
	}
	if rw := g.EdgeWeight(v, u); !math.IsInf(rw, 1) {
		g.removeEdge(v, u)
		if err := g.AddEdge(v, mid, rw*(1-t)); err != nil {
			return InvalidNode, err
		}
		if err := g.AddEdge(mid, u, rw*t); err != nil {
			return InvalidNode, err
		}
	}
	return mid, nil
}

// Bounds returns the bounding box of all node coordinates.
func (g *Graph) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, p := range g.pts {
		r = r.Extend(p)
	}
	return r
}

// Validate checks structural invariants (mirror consistency of in/out lists
// and the edge count). It is intended for tests and data ingestion, not hot
// paths.
func (g *Graph) Validate() error {
	outCount, inCount := 0, 0
	for v := range g.out {
		outCount += len(g.out[v])
		inCount += len(g.in[v])
		for _, e := range g.out[v] {
			if !g.valid(e.to) {
				return fmt.Errorf("roadnet: node %d has out-edge to invalid node %d", v, e.to)
			}
		}
		for _, e := range g.in[v] {
			if !g.valid(e.to) {
				return fmt.Errorf("roadnet: node %d has in-edge from invalid node %d", v, e.to)
			}
		}
	}
	if outCount != inCount || outCount != g.nEdg {
		return fmt.Errorf("roadnet: edge count mismatch out=%d in=%d counter=%d", outCount, inCount, g.nEdg)
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		pts:   append([]geo.Point(nil), g.pts...),
		out:   make([][]halfEdge, len(g.out)),
		in:    make([][]halfEdge, len(g.in)),
		nEdg:  g.nEdg,
		steep: g.steep,
	}
	for i := range g.out {
		c.out[i] = append([]halfEdge(nil), g.out[i]...)
		c.in[i] = append([]halfEdge(nil), g.in[i]...)
	}
	return c
}
