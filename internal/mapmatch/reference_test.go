package mapmatch

import (
	"fmt"
	"math"

	"netclus/internal/roadnet"
	"netclus/internal/spatial"
	"netclus/internal/trajectory"
)

// refMatcher is the matcher as it stood before the pooled lattice and the
// target search, frozen as the differential oracle for Match: one map-valued
// Bounded Dijkstra per previous candidate, a slice per lattice layer, and
// gap completion with the map-based A* it called then (refAStar). Do not
// optimise it — its whole value is that it is the old code.
type refMatcher struct {
	g       *roadnet.Graph
	grid    *spatial.Grid
	cfg     Config
	scratch *roadnet.DijkstraScratch
}

func newRefMatcher(g *roadnet.Graph, cfg Config) *refMatcher {
	return &refMatcher{
		g:       g,
		grid:    spatial.NewGrid(g, 0),
		cfg:     cfg.withDefaults(),
		scratch: roadnet.NewScratch(g),
	}
}

type refCandidate struct {
	node    roadnet.NodeID
	emitLog float64
	score   float64
	prev    int
}

func (m *refMatcher) Match(trace trajectory.GPSTrace) (*trajectory.Trajectory, error) {
	for i, p := range trace.Points {
		if !finite(p.Pos.X) || !finite(p.Pos.Y) {
			return nil, fmt.Errorf("mapmatch: point %d has non-finite coordinates", i)
		}
	}
	pts := m.thin(trace)
	if len(pts) == 0 {
		return nil, fmt.Errorf("mapmatch: empty trace")
	}
	layers, err := m.buildLattice(pts)
	if err != nil {
		return nil, err
	}
	best := m.viterbi(pts, layers)
	if best == nil {
		return nil, fmt.Errorf("mapmatch: no feasible path through candidate lattice")
	}
	nodes := refLongestSegment(m.stitch(best))
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mapmatch: stitching produced empty walk")
	}
	return trajectory.New(m.g, nodes)
}

func (m *refMatcher) thin(trace trajectory.GPSTrace) []trajectory.GPSPoint {
	if m.cfg.MinPointSpacingKm == 0 || len(trace.Points) == 0 {
		return trace.Points
	}
	out := make([]trajectory.GPSPoint, 1, len(trace.Points))
	out[0] = trace.Points[0]
	for _, p := range trace.Points[1:] {
		if p.Pos.Dist(out[len(out)-1].Pos) >= m.cfg.MinPointSpacingKm {
			out = append(out, p)
		}
	}
	return out
}

func (m *refMatcher) buildLattice(pts []trajectory.GPSPoint) ([][]refCandidate, error) {
	layers := make([][]refCandidate, len(pts))
	sigma2 := 2 * m.cfg.SigmaKm * m.cfg.SigmaKm
	for i, p := range pts {
		ids := m.grid.Within(p.Pos, m.cfg.CandidateRadiusKm, nil)
		if len(ids) == 0 {
			v, d := m.grid.Nearest(p.Pos)
			if v == roadnet.InvalidNode {
				return nil, fmt.Errorf("mapmatch: point %d has no candidates (empty network?)", i)
			}
			layers[i] = []refCandidate{{node: v, emitLog: -d * d / sigma2}}
			continue
		}
		if len(ids) > m.cfg.MaxCandidates {
			ids = m.closestK(p, ids, m.cfg.MaxCandidates)
		}
		layer := make([]refCandidate, 0, len(ids))
		for _, v := range ids {
			d := m.g.Point(v).Dist(p.Pos)
			layer = append(layer, refCandidate{node: v, emitLog: -d * d / sigma2})
		}
		layers[i] = layer
	}
	return layers, nil
}

func (m *refMatcher) closestK(p trajectory.GPSPoint, ids []roadnet.NodeID, k int) []roadnet.NodeID {
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(ids); j++ {
			if m.g.Point(ids[j]).DistSq(p.Pos) < m.g.Point(ids[min]).DistSq(p.Pos) {
				min = j
			}
		}
		ids[i], ids[min] = ids[min], ids[i]
	}
	return ids[:k]
}

func (m *refMatcher) viterbi(pts []trajectory.GPSPoint, layers [][]refCandidate) []roadnet.NodeID {
	first := layers[0]
	for i := range first {
		first[i].score = first[i].emitLog
		first[i].prev = -1
	}
	const negInf = math.MaxFloat64 * -1
	for li := 1; li < len(layers); li++ {
		prevLayer := layers[li-1]
		gpsDist := pts[li].Pos.Dist(pts[li-1].Pos)
		searchRadius := gpsDist*3 + m.cfg.CandidateRadiusKm*4
		netDist := make([]map[roadnet.NodeID]float64, len(prevLayer))
		for pi, pc := range prevLayer {
			res := m.scratch.Bounded(m.g, pc.node, roadnet.Forward, searchRadius)
			netDist[pi] = res.Dist
		}
		for ci := range layers[li] {
			c := &layers[li][ci]
			c.score = negInf
			c.prev = -1
			for pi := range prevLayer {
				pScore := prevLayer[pi].score
				if pScore == negInf {
					continue
				}
				nd, ok := netDist[pi][c.node]
				if !ok {
					continue
				}
				transLog := -math.Abs(nd-gpsDist) / m.cfg.BetaKm
				if s := pScore + transLog + c.emitLog; s > c.score {
					c.score = s
					c.prev = pi
				}
			}
		}
		broken := true
		for ci := range layers[li] {
			if layers[li][ci].prev != -1 {
				broken = false
				break
			}
		}
		if broken {
			for ci := range layers[li] {
				layers[li][ci].score = layers[li][ci].emitLog
				layers[li][ci].prev = -1
			}
		}
	}
	last := layers[len(layers)-1]
	bestIdx, bestScore := -1, negInf
	for i := range last {
		if last[i].score > bestScore {
			bestIdx, bestScore = i, last[i].score
		}
	}
	if bestIdx < 0 {
		return nil
	}
	out := make([]roadnet.NodeID, len(layers))
	idx := bestIdx
	for li := len(layers) - 1; li >= 0; li-- {
		out[li] = layers[li][idx].node
		idx = layers[li][idx].prev
		if idx < 0 && li > 0 {
			prevBest, prevScore := 0, negInf
			for i := range layers[li-1] {
				if layers[li-1][i].score > prevScore {
					prevBest, prevScore = i, layers[li-1][i].score
				}
			}
			idx = prevBest
		}
	}
	return out
}

func (m *refMatcher) stitch(matched []roadnet.NodeID) [][]roadnet.NodeID {
	var segs [][]roadnet.NodeID
	var cur []roadnet.NodeID
	for _, v := range matched {
		if len(cur) == 0 {
			cur = append(cur, v)
			continue
		}
		prev := cur[len(cur)-1]
		if v == prev {
			continue
		}
		if m.g.HasEdge(prev, v) {
			cur = append(cur, v)
			continue
		}
		path, d := refAStar(m.g, prev, v)
		if math.IsInf(d, 1) {
			segs = append(segs, cur)
			cur = []roadnet.NodeID{v}
			continue
		}
		cur = append(cur, path[1:]...)
	}
	if len(cur) > 0 {
		segs = append(segs, cur)
	}
	return segs
}

func refLongestSegment(segs [][]roadnet.NodeID) []roadnet.NodeID {
	var best []roadnet.NodeID
	for _, s := range segs {
		if len(s) > len(best) {
			best = s
		}
	}
	return best
}

// refAStar is roadnet.AStar as it was before it moved onto
// DijkstraScratch's dense arrays: g scores, predecessors and the closed
// set in Go maps, and container-free heap ordering by g + h.
func refAStar(g *roadnet.Graph, src, dst roadnet.NodeID) ([]roadnet.NodeID, float64) {
	n := g.NumNodes()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil, math.Inf(1)
	}
	if src == dst {
		return []roadnet.NodeID{src}, 0
	}
	gScore := make(map[roadnet.NodeID]float64, 256)
	prev := make(map[roadnet.NodeID]roadnet.NodeID, 256)
	closed := make(map[roadnet.NodeID]bool, 256)
	target := g.Point(dst)
	h := func(v roadnet.NodeID) float64 { return g.Point(v).Dist(target) }

	var open refHeap
	gScore[src] = 0
	open.push(refItem{node: src, key: h(src)})
	for len(open) > 0 {
		it := open.pop()
		v := it.node
		if closed[v] {
			continue
		}
		if v == dst {
			break
		}
		closed[v] = true
		gv := gScore[v]
		g.Neighbors(v, func(to roadnet.NodeID, w float64) bool {
			if closed[to] {
				return true
			}
			ng := gv + w
			if old, ok := gScore[to]; !ok || ng < old {
				gScore[to] = ng
				prev[to] = v
				open.push(refItem{node: to, key: ng + h(to)})
			}
			return true
		})
	}
	d, ok := gScore[dst]
	if !ok {
		return nil, math.Inf(1)
	}
	var rev []roadnet.NodeID
	for v := dst; ; {
		rev = append(rev, v)
		if v == src {
			break
		}
		p, ok := prev[v]
		if !ok || len(rev) > n {
			return nil, math.Inf(1)
		}
		v = p
	}
	path := make([]roadnet.NodeID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, d
}

// refItem and refHeap copy roadnet's unexported binary min-heap, sift for
// sift, so refAStar pops in the order roadnet.AStar did.
type refItem struct {
	node roadnet.NodeID
	key  float64
}

type refHeap []refItem

func (h *refHeap) push(it refItem) {
	*h = append(*h, it)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].key <= a[i].key {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

func (h *refHeap) pop() refItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && a[l].key < a[small].key {
			small = l
		}
		if r < last && a[r].key < a[small].key {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	*h = a
	return top
}
