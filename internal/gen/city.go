// Package gen synthesizes road networks and trajectory workloads.
//
// The paper evaluates on proprietary map-matched GPS data (T-Drive Beijing
// taxi traces) and on MNTG-generated traffic for New York, Atlanta and
// Bangalore. Neither source is available offline, so this package builds the
// closest synthetic equivalents:
//
//   - topology generators for the three city classes the paper contrasts in
//     Fig. 11 — star (New York), grid mesh (Atlanta), polycentric
//     (Bangalore) — plus a ring-mesh class standing in for Beijing;
//   - an origin–destination trajectory sampler with hotspot skew, routing
//     along (near-)shortest paths with optional waypoint deviation, matching
//     the well-known observation that real trips are not exactly shortest
//     paths;
//   - a GPS-noise emitter that converts node trajectories back into noisy
//     point traces so the map-matching substrate is exercised end to end.
//
// Everything is deterministic given the seed, so experiments are repeatable.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
)

// Topology selects the class of synthetic city.
type Topology int

const (
	// GridMesh is a rectangular lattice with jitter and random edge
	// removals — the Atlanta-style mesh of the paper ("trajectories
	// distributed all over the city").
	GridMesh Topology = iota
	// Star has arterial roads radiating from a dense core with sparse
	// ring connectors — the New York-style topology of the paper.
	Star
	// Polycentric has several dense local centers connected by highways —
	// the Bangalore-style topology of the paper.
	Polycentric
	// RingMesh is a dense mesh with concentric ring roads, standing in
	// for the Beijing network.
	RingMesh
)

// String implements fmt.Stringer.
func (tp Topology) String() string {
	switch tp {
	case GridMesh:
		return "grid-mesh"
	case Star:
		return "star"
	case Polycentric:
		return "polycentric"
	case RingMesh:
		return "ring-mesh"
	default:
		return fmt.Sprintf("topology(%d)", int(tp))
	}
}

// CityConfig parameterizes a synthetic road network.
type CityConfig struct {
	Topology Topology
	// Nodes is the approximate target node count before SCC restriction.
	Nodes int
	// SpanKm is the side length of the covered area in kilometres.
	SpanKm float64
	// Jitter perturbs node positions by this fraction of the lattice
	// spacing (0..0.5 recommended).
	Jitter float64
	// OneWayFrac is the fraction of street segments that are one-way.
	OneWayFrac float64
	// RemoveFrac removes this fraction of segments to break the perfect
	// lattice (applied before SCC restriction).
	RemoveFrac float64
	// Curvature scales edge weights relative to Euclidean length. It must
	// be at least 1 (a road is never shorter than its chord); zero means
	// 1.2, a typical road-curvature factor.
	Curvature float64
	// Seed drives all randomness.
	Seed int64
}

// withDefaults fills zero values.
func (c CityConfig) withDefaults() CityConfig {
	if c.Nodes <= 0 {
		c.Nodes = 2500
	}
	if c.SpanKm <= 0 {
		c.SpanKm = 20
	}
	if c.Curvature == 0 {
		c.Curvature = 1.2
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	return c
}

// City is a generated road network together with the hotspot centers used
// by the trajectory sampler.
type City struct {
	Graph    *roadnet.Graph
	Config   CityConfig
	Hotspots []geo.Point
}

// GenerateCity builds a synthetic city per the config. The returned graph is
// restricted to its largest strongly connected component so that every
// round-trip distance is finite, matching the map-matched real networks the
// paper operates on.
func GenerateCity(cfg CityConfig) (*City, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Curvature >= 1) {
		return nil, fmt.Errorf("gen: curvature %v is below 1: a road cannot be shorter than its chord", cfg.Curvature)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var g *roadnet.Graph
	var hotspots []geo.Point
	switch cfg.Topology {
	case GridMesh:
		g, hotspots = genGrid(cfg, rng, false)
	case RingMesh:
		g, hotspots = genGrid(cfg, rng, true)
	case Star:
		g, hotspots = genStar(cfg, rng)
	case Polycentric:
		g, hotspots = genPolycentric(cfg, rng)
	default:
		return nil, fmt.Errorf("gen: unknown topology %v", cfg.Topology)
	}
	core, mapping := roadnet.RestrictToLargestSCC(g)
	if core.NumNodes() == 0 {
		return nil, fmt.Errorf("gen: empty SCC core (config too destructive: %+v)", cfg)
	}
	_ = mapping
	return &City{Graph: core, Config: cfg, Hotspots: hotspots}, nil
}

// addStreet adds a two-way or (with probability cfg.OneWayFrac) one-way
// street between u and v, unless rng drops it per cfg.RemoveFrac.
func addStreet(g *roadnet.Graph, cfg CityConfig, rng *rand.Rand, u, v roadnet.NodeID) {
	if u == v {
		return
	}
	if rng.Float64() < cfg.RemoveFrac {
		return
	}
	if rng.Float64() < cfg.OneWayFrac {
		if rng.Intn(2) == 0 {
			_ = g.AddEdgeEuclid(u, v, cfg.Curvature)
		} else {
			_ = g.AddEdgeEuclid(v, u, cfg.Curvature)
		}
		return
	}
	_ = g.AddEdgeEuclid(u, v, cfg.Curvature)
	_ = g.AddEdgeEuclid(v, u, cfg.Curvature)
}

// genGrid builds a jittered lattice; with rings=true it densifies the center
// and overlays ring roads (RingMesh / "Beijing").
func genGrid(cfg CityConfig, rng *rand.Rand, rings bool) (*roadnet.Graph, []geo.Point) {
	side := int(math.Round(math.Sqrt(float64(cfg.Nodes))))
	if side < 2 {
		side = 2
	}
	spacing := cfg.SpanKm / float64(side-1)
	g := roadnet.New(side * side)
	ids := make([][]roadnet.NodeID, side)
	for y := 0; y < side; y++ {
		ids[y] = make([]roadnet.NodeID, side)
		for x := 0; x < side; x++ {
			p := geo.Point{
				X: float64(x)*spacing + (rng.Float64()-0.5)*2*cfg.Jitter*spacing,
				Y: float64(y)*spacing + (rng.Float64()-0.5)*2*cfg.Jitter*spacing,
			}
			ids[y][x] = g.AddNode(p)
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				addStreet(g, cfg, rng, ids[y][x], ids[y][x+1])
			}
			if y+1 < side {
				addStreet(g, cfg, rng, ids[y][x], ids[y+1][x])
			}
			// Occasional diagonal shortcut.
			if x+1 < side && y+1 < side && rng.Float64() < 0.08 {
				addStreet(g, cfg, rng, ids[y][x], ids[y+1][x+1])
			}
		}
	}
	center := geo.Point{X: cfg.SpanKm / 2, Y: cfg.SpanKm / 2}
	hotspots := []geo.Point{center}
	if rings {
		// Ring roads: connect lattice nodes lying near concentric radii
		// with faster (less curvy) segments.
		for _, rFrac := range []float64{0.15, 0.3, 0.45} {
			radius := cfg.SpanKm * rFrac
			var ringNodes []roadnet.NodeID
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					if math.Abs(g.Point(ids[y][x]).Dist(center)-radius) < spacing*0.6 {
						ringNodes = append(ringNodes, ids[y][x])
					}
				}
			}
			// Sort ring nodes by angle and link consecutive ones.
			sortByAngle(g, ringNodes, center)
			for i := 0; i < len(ringNodes); i++ {
				u := ringNodes[i]
				v := ringNodes[(i+1)%len(ringNodes)]
				if u != v && g.Point(u).Dist(g.Point(v)) < spacing*4 {
					_ = g.AddEdgeEuclid(u, v, 1.05)
					_ = g.AddEdgeEuclid(v, u, 1.05)
				}
			}
		}
		// Beijing-style hotspots: center plus ring intersections.
		for _, f := range []geo.Point{{X: 0.3, Y: 0.3}, {X: 0.7, Y: 0.3}, {X: 0.3, Y: 0.7}, {X: 0.7, Y: 0.7}} {
			hotspots = append(hotspots, geo.Point{X: cfg.SpanKm * f.X, Y: cfg.SpanKm * f.Y})
		}
	} else {
		// Mesh cities have diffuse demand: corners and center.
		for _, f := range []geo.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.2}, {X: 0.2, Y: 0.8}, {X: 0.8, Y: 0.8}, {X: 0.5, Y: 0.1}, {X: 0.1, Y: 0.5}} {
			hotspots = append(hotspots, geo.Point{X: cfg.SpanKm * f.X, Y: cfg.SpanKm * f.Y})
		}
	}
	return g, hotspots
}

// genStar builds radial arteries from a dense core with ring connectors.
func genStar(cfg CityConfig, rng *rand.Rand) (*roadnet.Graph, []geo.Point) {
	g := roadnet.New(cfg.Nodes)
	center := geo.Point{X: cfg.SpanKm / 2, Y: cfg.SpanKm / 2}
	arms := 8
	maxRadius := cfg.SpanKm / 2

	// Dense core: small grid around the center covering ~15% of the span.
	coreSide := int(math.Max(3, math.Sqrt(float64(cfg.Nodes)*0.25)))
	coreSpan := cfg.SpanKm * 0.18
	coreSpacing := coreSpan / float64(coreSide-1)
	coreIDs := make([][]roadnet.NodeID, coreSide)
	origin := geo.Point{X: center.X - coreSpan/2, Y: center.Y - coreSpan/2}
	for y := 0; y < coreSide; y++ {
		coreIDs[y] = make([]roadnet.NodeID, coreSide)
		for x := 0; x < coreSide; x++ {
			p := geo.Point{
				X: origin.X + float64(x)*coreSpacing + (rng.Float64()-0.5)*cfg.Jitter*coreSpacing,
				Y: origin.Y + float64(y)*coreSpacing + (rng.Float64()-0.5)*cfg.Jitter*coreSpacing,
			}
			coreIDs[y][x] = g.AddNode(p)
		}
	}
	for y := 0; y < coreSide; y++ {
		for x := 0; x < coreSide; x++ {
			if x+1 < coreSide {
				addStreet(g, cfg, rng, coreIDs[y][x], coreIDs[y][x+1])
			}
			if y+1 < coreSide {
				addStreet(g, cfg, rng, coreIDs[y][x], coreIDs[y+1][x])
			}
		}
	}

	// Arms: chains of nodes leaving the core edge, with short side branches.
	nodesPerArm := (cfg.Nodes - coreSide*coreSide) / arms
	if nodesPerArm < 4 {
		nodesPerArm = 4
	}
	armEnds := make([][]roadnet.NodeID, arms) // nodes of each arm in order
	for a := 0; a < arms; a++ {
		angle := 2 * math.Pi * float64(a) / float64(arms)
		dir := geo.Point{X: math.Cos(angle), Y: math.Sin(angle)}
		startR := coreSpan * 0.5
		// Attach the arm to the nearest core boundary node.
		attach := coreIDs[clampIdx(int(float64(coreSide)*(0.5+dir.Y/2)), coreSide)][clampIdx(int(float64(coreSide)*(0.5+dir.X/2)), coreSide)]
		prev := attach
		mainLen := nodesPerArm * 2 / 3
		branchBudget := nodesPerArm - mainLen
		for i := 1; i <= mainLen; i++ {
			r := startR + (maxRadius-startR)*float64(i)/float64(mainLen)
			p := center.Add(dir.Scale(r))
			p.X += (rng.Float64() - 0.5) * cfg.Jitter * 2
			p.Y += (rng.Float64() - 0.5) * cfg.Jitter * 2
			v := g.AddNode(p)
			// Arteries are fast (low curvature) and always two-way.
			_ = g.AddEdgeEuclid(prev, v, 1.05)
			_ = g.AddEdgeEuclid(v, prev, 1.05)
			armEnds[a] = append(armEnds[a], v)
			// Side branch.
			if branchBudget > 0 && rng.Float64() < 0.4 {
				perp := geo.Point{X: -dir.Y, Y: dir.X}
				if rng.Intn(2) == 0 {
					perp = perp.Scale(-1)
				}
				bp := p.Add(perp.Scale(0.5 + rng.Float64()))
				b := g.AddNode(bp)
				addStreet(g, cfg, rng, v, b)
				branchBudget--
			}
			prev = v
		}
	}
	// Ring connectors between adjacent arms at two radii fractions.
	for _, frac := range []float64{0.35, 0.7} {
		for a := 0; a < arms; a++ {
			na := armEnds[a]
			nb := armEnds[(a+1)%arms]
			if len(na) == 0 || len(nb) == 0 {
				continue
			}
			i := clampIdx(int(frac*float64(len(na))), len(na))
			j := clampIdx(int(frac*float64(len(nb))), len(nb))
			addStreet(g, cfg, rng, na[i], nb[j])
		}
	}
	// Star hotspots: the core plus a few arm tips (commuter origins).
	hotspots := []geo.Point{center}
	for a := 0; a < arms; a += 2 {
		if n := len(armEnds[a]); n > 0 {
			hotspots = append(hotspots, g.Point(armEnds[a][n-1]))
		}
	}
	return g, hotspots
}

// genPolycentric builds several dense local grids connected by highways.
func genPolycentric(cfg CityConfig, rng *rand.Rand) (*roadnet.Graph, []geo.Point) {
	g := roadnet.New(cfg.Nodes)
	centers := 5
	hotspots := make([]geo.Point, 0, centers)
	// Place centers on a loose pentagon with jitter.
	mid := geo.Point{X: cfg.SpanKm / 2, Y: cfg.SpanKm / 2}
	var centerPts []geo.Point
	for c := 0; c < centers; c++ {
		angle := 2*math.Pi*float64(c)/float64(centers) + rng.Float64()*0.3
		r := cfg.SpanKm * (0.22 + rng.Float64()*0.1)
		centerPts = append(centerPts, mid.Add(geo.Point{X: math.Cos(angle) * r, Y: math.Sin(angle) * r}))
	}
	nodesPerCenter := cfg.Nodes / centers
	side := int(math.Max(3, math.Sqrt(float64(nodesPerCenter))))
	localSpan := cfg.SpanKm * 0.22
	gateways := make([]roadnet.NodeID, centers)
	for c, cp := range centerPts {
		hotspots = append(hotspots, cp)
		spacing := localSpan / float64(side-1)
		origin := geo.Point{X: cp.X - localSpan/2, Y: cp.Y - localSpan/2}
		ids := make([][]roadnet.NodeID, side)
		for y := 0; y < side; y++ {
			ids[y] = make([]roadnet.NodeID, side)
			for x := 0; x < side; x++ {
				p := geo.Point{
					X: origin.X + float64(x)*spacing + (rng.Float64()-0.5)*cfg.Jitter*spacing,
					Y: origin.Y + float64(y)*spacing + (rng.Float64()-0.5)*cfg.Jitter*spacing,
				}
				ids[y][x] = g.AddNode(p)
			}
		}
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if x+1 < side {
					addStreet(g, cfg, rng, ids[y][x], ids[y][x+1])
				}
				if y+1 < side {
					addStreet(g, cfg, rng, ids[y][x], ids[y+1][x])
				}
			}
		}
		gateways[c] = ids[side/2][side/2]
	}
	// Highways: connect every pair of adjacent centers (ring) plus one
	// cross-link, with intermediate nodes so the highway is map-matchable.
	link := func(a, b roadnet.NodeID) {
		pa, pb := g.Point(a), g.Point(b)
		hops := int(math.Max(2, pa.Dist(pb)/1.5))
		prev := a
		for i := 1; i < hops; i++ {
			p := geo.Lerp(pa, pb, float64(i)/float64(hops))
			p.X += (rng.Float64() - 0.5) * 0.4
			p.Y += (rng.Float64() - 0.5) * 0.4
			v := g.AddNode(p)
			_ = g.AddEdgeEuclid(prev, v, 1.02)
			_ = g.AddEdgeEuclid(v, prev, 1.02)
			prev = v
		}
		_ = g.AddEdgeEuclid(prev, b, 1.02)
		_ = g.AddEdgeEuclid(b, prev, 1.02)
	}
	for c := 0; c < centers; c++ {
		link(gateways[c], gateways[(c+1)%centers])
	}
	link(gateways[0], gateways[2])
	return g, hotspots
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// sortByAngle orders node ids by polar angle around center (insertion sort;
// ring node counts are small).
func sortByAngle(g *roadnet.Graph, ids []roadnet.NodeID, center geo.Point) {
	angle := func(v roadnet.NodeID) float64 {
		p := g.Point(v).Sub(center)
		return math.Atan2(p.Y, p.X)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && angle(ids[j]) < angle(ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
