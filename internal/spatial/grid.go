// Package spatial provides a uniform grid index over road-network nodes.
//
// The index answers the two queries the reproduction needs in hot paths:
// nearest node to a point (map matching, site snapping) and all nodes within
// a radius (candidate generation for the HMM matcher). A uniform grid beats
// tree structures here because city road networks have near-uniform node
// density, queries are tiny-radius, and construction must be cheap enough to
// rebuild per synthetic dataset.
package spatial

import (
	"math"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
)

// Grid is a uniform spatial hash of node positions. It is immutable after
// construction and safe for concurrent use.
type Grid struct {
	bounds   geo.Rect
	cell     float64 // cell side length, km
	nx, ny   int
	cells    [][]roadnet.NodeID
	points   []geo.Point
	numNodes int
}

// NewGrid indexes every node of g using cells of the given side length in
// kilometres. A non-positive cellSize picks a heuristic aiming at a handful
// of nodes per cell.
func NewGrid(g *roadnet.Graph, cellSize float64) *Grid {
	n := g.NumNodes()
	b := g.Bounds()
	if n == 0 {
		return &Grid{bounds: b, cell: 1, nx: 1, ny: 1, cells: make([][]roadnet.NodeID, 1)}
	}
	if cellSize <= 0 {
		// Aim for ~4 nodes per cell on average.
		area := math.Max(b.Area(), 1e-9)
		cellSize = math.Sqrt(area / float64(n) * 4)
		if cellSize <= 0 || math.IsNaN(cellSize) {
			cellSize = 1
		}
	}
	nx := int(math.Ceil(math.Max(b.Width(), 1e-9)/cellSize)) + 1
	ny := int(math.Ceil(math.Max(b.Height(), 1e-9)/cellSize)) + 1
	gr := &Grid{
		bounds:   b,
		cell:     cellSize,
		nx:       nx,
		ny:       ny,
		cells:    make([][]roadnet.NodeID, nx*ny),
		points:   make([]geo.Point, n),
		numNodes: n,
	}
	for v := 0; v < n; v++ {
		p := g.Point(roadnet.NodeID(v))
		gr.points[v] = p
		c := gr.cellIndex(p)
		gr.cells[c] = append(gr.cells[c], roadnet.NodeID(v))
	}
	return gr
}

func (gr *Grid) cellCoords(p geo.Point) (int, int) {
	cx := int((p.X - gr.bounds.Min.X) / gr.cell)
	cy := int((p.Y - gr.bounds.Min.Y) / gr.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= gr.nx {
		cx = gr.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= gr.ny {
		cy = gr.ny - 1
	}
	return cx, cy
}

func (gr *Grid) cellIndex(p geo.Point) int {
	cx, cy := gr.cellCoords(p)
	return cy*gr.nx + cx
}

// Nearest returns the node closest to p in Euclidean distance and that
// distance. It returns (InvalidNode, +Inf) on an empty index. The search
// expands rings of cells outward until the closest found node provably
// dominates all unexplored cells.
func (gr *Grid) Nearest(p geo.Point) (roadnet.NodeID, float64) {
	if gr.numNodes == 0 {
		return roadnet.InvalidNode, math.Inf(1)
	}
	cx, cy := gr.cellCoords(p)
	best := roadnet.InvalidNode
	bestD := math.Inf(1)
	maxRing := gr.nx
	if gr.ny > maxRing {
		maxRing = gr.ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once we have a candidate, stop when the nearest possible point in
		// the next unexplored ring is farther than it.
		if best != roadnet.InvalidNode && float64(ring-1)*gr.cell > bestD {
			break
		}
		gr.forEachCellInRing(cx, cy, ring, func(cell []roadnet.NodeID) {
			for _, v := range cell {
				if d := gr.points[v].Dist(p); d < bestD {
					best, bestD = v, d
				}
			}
		})
	}
	return best, bestD
}

// Within appends to dst every node within radius of p and returns the
// result. Distances are Euclidean.
func (gr *Grid) Within(p geo.Point, radius float64, dst []roadnet.NodeID) []roadnet.NodeID {
	if gr.numNodes == 0 || radius < 0 {
		return dst
	}
	r2 := radius * radius
	minX, minY := gr.cellCoords(geo.Point{X: p.X - radius, Y: p.Y - radius})
	maxX, maxY := gr.cellCoords(geo.Point{X: p.X + radius, Y: p.Y + radius})
	for cy := minY; cy <= maxY; cy++ {
		for cx := minX; cx <= maxX; cx++ {
			for _, v := range gr.cells[cy*gr.nx+cx] {
				if gr.points[v].DistSq(p) <= r2 {
					dst = append(dst, v)
				}
			}
		}
	}
	return dst
}

// forEachCellInRing visits every cell at Chebyshev distance ring from
// (cx,cy), clipped to the grid.
func (gr *Grid) forEachCellInRing(cx, cy, ring int, fn func([]roadnet.NodeID)) {
	if ring == 0 {
		if cx >= 0 && cx < gr.nx && cy >= 0 && cy < gr.ny {
			fn(gr.cells[cy*gr.nx+cx])
		}
		return
	}
	visit := func(x, y int) {
		if x >= 0 && x < gr.nx && y >= 0 && y < gr.ny {
			fn(gr.cells[y*gr.nx+x])
		}
	}
	for x := cx - ring; x <= cx+ring; x++ {
		visit(x, cy-ring)
		visit(x, cy+ring)
	}
	for y := cy - ring + 1; y <= cy+ring-1; y++ {
		visit(cx-ring, y)
		visit(cx+ring, y)
	}
}
