// Package mapmatch converts raw GPS traces into road-network node sequences.
//
// The paper's pipeline (Fig. 2) map-matches raw traces with the
// low-sampling-rate HMM matcher of Lou et al. [33] before any TOPS
// processing. This package implements the same idea, simplified to what the
// reproduction needs:
//
//   - candidate generation: the nodes within a radius of each GPS point,
//     found with the uniform grid index;
//   - emission score: Gaussian in the point-to-candidate distance;
//   - transition score: exponential in the difference between the network
//     distance of consecutive candidates and the great-circle (here planar)
//     distance of their GPS points — straight-moving vehicles prefer paths
//     that do not detour;
//   - Viterbi decoding over the candidate lattice, followed by gap
//     completion with shortest paths so the output is a connected node walk.
//
// A Matcher keeps all of its working memory between traces, so a matched
// trace costs a handful of allocations (the returned trajectory's) instead
// of a few thousand:
//
//   - the lattice is held in struct-of-arrays form (one flat slice per
//     candidate field, layers delimited by offsets), together with the
//     thinned points, the grid query buffer and the stitched walk;
//   - the network distances a Viterbi layer needs come from one target
//     search per previous candidate (roadnet.DijkstraScratch.DistancesTo):
//     a goal-directed search over the scratch's dense arrays that writes
//     one distance per next-layer candidate and stops once all of them are
//     settled, rather than settling the whole corridor of radius
//     3·gpsDist + 4·CandidateRadiusKm into a map;
//   - gap completion runs roadnet.DijkstraScratch.AStar on the same
//     scratch.
//
// Both searches settle nodes in a different order from the map-based code
// they replaced, but they find the same distances bit for bit, so every
// matched walk is node-for-node the one that code found; a frozen copy of
// it is the package's differential oracle (TestMatchDifferential).
package mapmatch

import (
	"context"
	"fmt"
	"math"

	"netclus/internal/roadnet"
	"netclus/internal/spatial"
	"netclus/internal/trajectory"
)

// Config tunes the HMM matcher.
type Config struct {
	// CandidateRadiusKm bounds the emission search around each GPS point.
	CandidateRadiusKm float64
	// MaxCandidates caps candidates per point (closest kept).
	MaxCandidates int
	// SigmaKm is the GPS noise standard deviation for the emission model.
	SigmaKm float64
	// BetaKm is the transition tolerance: larger values forgive bigger
	// disagreement between network and straight-line displacement.
	BetaKm float64
	// MinPointSpacingKm drops consecutive GPS points closer than this,
	// which both speeds matching and avoids degenerate transitions.
	MinPointSpacingKm float64
}

func (c Config) withDefaults() Config {
	if c.CandidateRadiusKm <= 0 {
		c.CandidateRadiusKm = 0.3
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 6
	}
	if c.SigmaKm <= 0 {
		c.SigmaKm = 0.05
	}
	if c.BetaKm <= 0 {
		c.BetaKm = 0.3
	}
	if c.MinPointSpacingKm < 0 {
		c.MinPointSpacingKm = 0
	}
	return c
}

// Matcher matches GPS traces against a fixed road network.
type Matcher struct {
	g       *roadnet.Graph
	grid    *spatial.Grid
	cfg     Config
	scratch *roadnet.DijkstraScratch
	lat     lattice
}

// NewMatcher builds a matcher over g. The grid index is constructed once
// and reused across traces.
func NewMatcher(g *roadnet.Graph, cfg Config) *Matcher {
	return NewMatcherWithIndex(g, spatial.NewGrid(g, 0), cfg)
}

// NewMatcherWithIndex builds a matcher over g reusing a prebuilt grid
// index. The grid is read-only during matching, so a worker pool shares
// one index while each worker keeps its own matcher (the Dijkstra scratch
// and the lattice are mutable — a Matcher must not be used concurrently).
func NewMatcherWithIndex(g *roadnet.Graph, grid *spatial.Grid, cfg Config) *Matcher {
	return &Matcher{
		g:       g,
		grid:    grid,
		cfg:     cfg.withDefaults(),
		scratch: roadnet.NewScratch(g),
	}
}

// lattice is the Viterbi candidate lattice in struct-of-arrays form, plus
// the per-trace buffers around it. Layer i holds candidates
// start[i] ≤ j < start[i+1] of the per-candidate slices. Every slice is
// reused across traces; nothing in it outlives one Match call.
type lattice struct {
	start []int
	node  []roadnet.NodeID
	emit  []float64 // emission log-score
	score []float64 // Viterbi score
	prev  []int     // position in the previous layer, -1 at a (re)start
	// dist holds one layer's network distances, row p (a previous-layer
	// candidate) by column c (a candidate of the layer): +Inf when c is not
	// reached within the search radius.
	dist []float64
	pts  []trajectory.GPSPoint // thinned trace
	ids  []roadnet.NodeID      // grid.Within results
	best []roadnet.NodeID      // decoded node per layer
	walk []roadnet.NodeID      // stitched walk, every segment back to back
}

// Match converts a GPS trace into a map-matched trajectory. It returns an
// error when the trace is empty, contains non-finite coordinates, or no
// candidate lattice path exists (e.g. the trace lies outside the network).
func (m *Matcher) Match(trace trajectory.GPSTrace) (*trajectory.Trajectory, error) {
	return m.MatchCtx(context.Background(), trace)
}

// MatchCtx is Match with cancellation: the decoding checks ctx between
// lattice layers and returns ctx.Err() once it is done. Matching is
// CPU-bound, so this is the knob streaming callers (the ingest pipeline)
// use to abandon work when the client hangs up.
func (m *Matcher) MatchCtx(ctx context.Context, trace trajectory.GPSTrace) (*trajectory.Trajectory, error) {
	for i, p := range trace.Points {
		if !finite(p.Pos.X) || !finite(p.Pos.Y) {
			return nil, fmt.Errorf("mapmatch: point %d has non-finite coordinates", i)
		}
	}
	pts := m.thin(trace)
	if len(pts) == 0 {
		return nil, fmt.Errorf("mapmatch: empty trace")
	}
	if err := m.buildLattice(pts); err != nil {
		return nil, err
	}
	best, err := m.viterbi(ctx, pts)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("mapmatch: no feasible path through candidate lattice")
	}
	nodes := m.stitch(best)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mapmatch: stitching produced empty walk")
	}
	// trajectory.New copies nodes, so the walk buffer is free again.
	return trajectory.New(m.g, nodes)
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// thin drops points closer than MinPointSpacingKm to their predecessor.
// The result never aliases trace.Points: callers retain the raw trace and
// must not see it mutated by later lattice work.
func (m *Matcher) thin(trace trajectory.GPSTrace) []trajectory.GPSPoint {
	if m.cfg.MinPointSpacingKm == 0 || len(trace.Points) == 0 {
		return trace.Points
	}
	out := append(m.lat.pts[:0], trace.Points[0])
	for _, p := range trace.Points[1:] {
		if p.Pos.Dist(out[len(out)-1].Pos) >= m.cfg.MinPointSpacingKm {
			out = append(out, p)
		}
	}
	m.lat.pts = out
	return out
}

// buildLattice generates the candidate layers with emission scores.
func (m *Matcher) buildLattice(pts []trajectory.GPSPoint) error {
	l := &m.lat
	l.start = append(l.start[:0], 0)
	l.node, l.emit = l.node[:0], l.emit[:0]
	sigma2 := 2 * m.cfg.SigmaKm * m.cfg.SigmaKm
	for i, p := range pts {
		ids := m.grid.Within(p.Pos, m.cfg.CandidateRadiusKm, l.ids[:0])
		l.ids = ids
		if len(ids) == 0 {
			// Fall back to the single nearest node: traces may briefly
			// leave the candidate radius in sparse areas.
			v, d := m.grid.Nearest(p.Pos)
			if v == roadnet.InvalidNode {
				return fmt.Errorf("mapmatch: point %d has no candidates (empty network?)", i)
			}
			l.node = append(l.node, v)
			l.emit = append(l.emit, -d*d/sigma2)
		} else {
			if len(ids) > m.cfg.MaxCandidates {
				ids = m.closestK(p, ids, m.cfg.MaxCandidates)
			}
			for _, v := range ids {
				d := m.g.Point(v).Dist(p.Pos)
				l.node = append(l.node, v)
				l.emit = append(l.emit, -d*d/sigma2)
			}
		}
		l.start = append(l.start, len(l.node))
	}
	l.score = resize(l.score, len(l.node))
	l.prev = resize(l.prev, len(l.node))
	return nil
}

// resize returns s with length n, reallocating only when it must grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// closestK selects the k candidates nearest the point (partial selection).
func (m *Matcher) closestK(p trajectory.GPSPoint, ids []roadnet.NodeID, k int) []roadnet.NodeID {
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

// viterbi decodes the maximum-score candidate path and returns the chosen
// node of each layer, or nil when no final candidate has a score. It
// checks ctx once per layer — each layer runs one target search per
// previous candidate, so that is the natural grain.
func (m *Matcher) viterbi(ctx context.Context, pts []trajectory.GPSPoint) ([]roadnet.NodeID, error) {
	const negInf = math.MaxFloat64 * -1
	l := &m.lat
	layers := len(l.start) - 1
	for i := l.start[0]; i < l.start[1]; i++ {
		l.score[i] = l.emit[i]
		l.prev[i] = -1
	}
	for li := 1; li < layers; li++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p0, c0, c1 := l.start[li-1], l.start[li], l.start[li+1]
		nc := c1 - c0
		gpsDist := pts[li].Pos.Dist(pts[li-1].Pos)
		searchRadius := gpsDist*3 + m.cfg.CandidateRadiusKm*4
		// Network distances from every scored previous candidate to this
		// layer's candidates, one early-stopping search each.
		l.dist = resize(l.dist, (c0-p0)*nc)
		for pi := p0; pi < c0; pi++ {
			if l.score[pi] != negInf {
				row := l.dist[(pi-p0)*nc : (pi-p0+1)*nc]
				m.scratch.DistancesTo(m.g, l.node[pi], searchRadius, l.node[c0:c1], row)
			}
		}
		broken := true
		for ci := c0; ci < c1; ci++ {
			score, prev := negInf, -1
			for pi := p0; pi < c0; pi++ {
				pScore := l.score[pi]
				if pScore == negInf {
					continue
				}
				nd := l.dist[(pi-p0)*nc+ci-c0]
				if math.IsInf(nd, 1) {
					continue // unreachable within the corridor
				}
				transLog := -math.Abs(nd-gpsDist) / m.cfg.BetaKm
				if s := pScore + transLog + l.emit[ci]; s > score {
					score, prev = s, pi-p0
				}
			}
			l.score[ci], l.prev[ci] = score, prev
			if prev != -1 {
				broken = false
			}
		}
		// Lattice break: no candidate reachable. Restart scoring at this
		// layer (standard practice for low-quality traces) rather than
		// failing the whole trace.
		if broken {
			copy(l.score[c0:c1], l.emit[c0:c1])
		}
	}
	// Backtrack from the best final candidate.
	bestIdx := argmax(l.score[l.start[layers-1]:l.start[layers]], -1)
	if bestIdx < 0 {
		return nil, nil
	}
	l.best = resize(l.best, layers)
	idx := bestIdx
	for li := layers - 1; li >= 0; li-- {
		l.best[li] = l.node[l.start[li]+idx]
		idx = l.prev[l.start[li]+idx]
		if idx < 0 && li > 0 {
			// Restarted segment: greedily take the best-scored candidate
			// of the previous layer.
			idx = argmax(l.score[l.start[li-1]:l.start[li]], 0)
		}
	}
	return l.best, nil
}

// argmax returns the position of the first maximum of scores that is above
// -MaxFloat64, or none when there is no such score.
func argmax(scores []float64, none int) int {
	best, bestScore := none, math.MaxFloat64*-1
	for i, s := range scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// stitch expands the matched node-per-point sequence into a connected node
// walk by inserting shortest paths between consecutive distinct nodes, and
// returns the longest connected segment (earliest wins a tie) — the
// best-supported connected piece of the matched walk. Unbridgeable gaps
// split the walk, mirroring how production matchers handle tunnels and
// data holes; trajectory.New would reject the disconnected pair. The
// result aliases the matcher's walk buffer.
func (m *Matcher) stitch(matched []roadnet.NodeID) []roadnet.NodeID {
	w := append(m.lat.walk[:0], matched[0])
	lo, bestLo, bestHi := 0, 0, 0 // current segment w[lo:], best w[bestLo:bestHi]
	for _, v := range matched[1:] {
		prev := w[len(w)-1]
		if v == prev {
			continue
		}
		if m.g.HasEdge(prev, v) {
			w = append(w, v)
			continue
		}
		// The path starts at prev, so append it over prev's own slot.
		n := len(w)
		var d float64
		w, d = m.scratch.AStar(m.g, prev, v, w[:n-1])
		if math.IsInf(d, 1) {
			// Unbridgeable: AStar appended nothing, so w[:n] is intact.
			// Close the segment here and continue from the far side.
			w = w[:n]
			if n-lo > bestHi-bestLo {
				bestLo, bestHi = lo, n
			}
			lo = n
			w = append(w, v)
		}
	}
	if len(w)-lo > bestHi-bestLo {
		bestLo, bestHi = lo, len(w)
	}
	m.lat.walk = w
	return w[bestLo:bestHi]
}
