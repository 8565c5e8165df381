package gen

import (
	"fmt"
	"math"
	"math/rand"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
	"netclus/internal/spatial"
	"netclus/internal/trajectory"
)

// TrajConfig parameterizes the origin–destination trajectory sampler.
type TrajConfig struct {
	// Count is the number of trajectories to generate (m of the paper).
	Count int
	// HotspotProb is the probability that an endpoint is drawn near a
	// hotspot instead of uniformly (captures commuting skew).
	HotspotProb float64
	// HotspotSigmaKm is the Gaussian spread around a hotspot.
	HotspotSigmaKm float64
	// MinLenKm / MaxLenKm bound the Euclidean OD separation; trips whose
	// routed length falls outside [MinLenKm, 4*MaxLenKm] are rejected.
	MinLenKm, MaxLenKm float64
	// DeviationProb routes a trip through a random waypoint with this
	// probability, so trajectories are not all exact shortest paths.
	DeviationProb float64
	// Seed drives all randomness.
	Seed int64
}

func (c TrajConfig) withDefaults(city *City) TrajConfig {
	if c.Count <= 0 {
		c.Count = 1000
	}
	if c.HotspotProb == 0 {
		c.HotspotProb = 0.6
	}
	if c.HotspotSigmaKm <= 0 {
		c.HotspotSigmaKm = city.Config.SpanKm * 0.06
	}
	if c.MinLenKm <= 0 {
		c.MinLenKm = city.Config.SpanKm * 0.15
	}
	if c.MaxLenKm <= 0 {
		c.MaxLenKm = city.Config.SpanKm * 0.8
	}
	if c.DeviationProb == 0 {
		c.DeviationProb = 0.35
	}
	return c
}

// GenerateTrajectories samples trajectories over the city per the config.
func GenerateTrajectories(city *City, cfg TrajConfig) (*trajectory.Store, error) {
	cfg = cfg.withDefaults(city)
	g := city.Graph
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("gen: graph too small for trajectories")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	grid := spatial.NewGrid(g, 0)
	scratch := roadnet.NewScratch(g)
	store := trajectory.NewStore(cfg.Count)

	pickNode := func() roadnet.NodeID {
		if len(city.Hotspots) > 0 && rng.Float64() < cfg.HotspotProb {
			h := city.Hotspots[rng.Intn(len(city.Hotspots))]
			p := geo.Point{
				X: h.X + rng.NormFloat64()*cfg.HotspotSigmaKm,
				Y: h.Y + rng.NormFloat64()*cfg.HotspotSigmaKm,
			}
			v, _ := grid.Nearest(p)
			return v
		}
		return roadnet.NodeID(rng.Intn(g.NumNodes()))
	}

	// Length bounds relax progressively when a topology (e.g. a sparse
	// star at tiny scale) makes the configured window hard to hit, so
	// generation degrades gracefully instead of failing.
	const maxAttemptsPerTraj = 240
	const relaxEvery = 40
	for store.Len() < cfg.Count {
		var made bool
		minLen, maxLen := cfg.MinLenKm, cfg.MaxLenKm
		for attempt := 0; attempt < maxAttemptsPerTraj; attempt++ {
			if attempt > 0 && attempt%relaxEvery == 0 {
				minLen *= 0.5
				maxLen *= 1.5
			}
			src := pickNode()
			dst := pickNode()
			if src == dst || src == roadnet.InvalidNode || dst == roadnet.InvalidNode {
				continue
			}
			sep := g.Point(src).Dist(g.Point(dst))
			if sep < minLen || sep > maxLen {
				continue
			}
			path := routeTrip(g, grid, scratch, rng, src, dst, cfg)
			if path == nil {
				continue
			}
			tr, err := trajectory.New(g, path)
			if err != nil || tr.Len() < 2 {
				continue
			}
			if tr.Length() < minLen || tr.Length() > maxLen*4 {
				continue
			}
			store.Add(tr)
			made = true
			break
		}
		if !made {
			return nil, fmt.Errorf("gen: could not generate trajectory %d after %d attempts (config too restrictive: %+v)", store.Len(), maxAttemptsPerTraj, cfg)
		}
	}
	return store, nil
}

// routeTrip routes src -> dst, optionally via a waypoint off the direct
// corridor to emulate non-shortest-path behaviour.
func routeTrip(g *roadnet.Graph, grid *spatial.Grid, scratch *roadnet.DijkstraScratch, rng *rand.Rand, src, dst roadnet.NodeID, cfg TrajConfig) []roadnet.NodeID {
	if rng.Float64() < cfg.DeviationProb {
		mid := geo.Lerp(g.Point(src), g.Point(dst), 0.3+rng.Float64()*0.4)
		// Push the waypoint sideways off the corridor.
		dir := g.Point(dst).Sub(g.Point(src))
		norm := dir.Norm()
		if norm > 0 {
			perp := geo.Point{X: -dir.Y / norm, Y: dir.X / norm}
			off := (rng.Float64()*0.15 + 0.05) * norm
			if rng.Intn(2) == 0 {
				off = -off
			}
			mid = mid.Add(perp.Scale(off))
		}
		way, _ := grid.Nearest(mid)
		if way != roadnet.InvalidNode && way != src && way != dst {
			p1, d1 := scratch.AStar(g, src, way, nil)
			p2, d2 := scratch.AStar(g, way, dst, nil)
			if !math.IsInf(d1, 1) && !math.IsInf(d2, 1) {
				return append(p1, p2[1:]...)
			}
		}
	}
	path, d := scratch.AStar(g, src, dst, nil)
	if math.IsInf(d, 1) {
		return nil
	}
	return path
}

// GPSConfig parameterizes the noisy trace emitter.
type GPSConfig struct {
	// SampleEveryKm emits one GPS point per this many kilometres of travel.
	SampleEveryKm float64
	// NoiseSigmaKm is the Gaussian position noise (typical urban GPS noise
	// is 10–30 m, i.e. 0.01–0.03 km).
	NoiseSigmaKm float64
	// SpeedKmh converts travelled distance into timestamps.
	SpeedKmh float64
	// Seed drives the noise.
	Seed int64
}

func (c GPSConfig) withDefaults() GPSConfig {
	if c.SampleEveryKm <= 0 {
		c.SampleEveryKm = 0.25
	}
	if c.NoiseSigmaKm < 0 {
		c.NoiseSigmaKm = 0
	} else if c.NoiseSigmaKm == 0 {
		c.NoiseSigmaKm = 0.02
	}
	if c.SpeedKmh <= 0 {
		c.SpeedKmh = 30
	}
	return c
}

// EmitGPS converts a node trajectory into a noisy GPS trace by walking the
// straight segments between consecutive trajectory nodes and sampling
// points at a fixed distance interval, then adding Gaussian noise. The first
// and last nodes are always sampled so the trace spans the full trip.
func EmitGPS(g *roadnet.Graph, tr *trajectory.Trajectory, cfg GPSConfig) trajectory.GPSTrace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var trace trajectory.GPSTrace
	if tr.Len() == 0 {
		return trace
	}
	noise := func(p geo.Point) geo.Point {
		return geo.Point{
			X: p.X + rng.NormFloat64()*cfg.NoiseSigmaKm,
			Y: p.Y + rng.NormFloat64()*cfg.NoiseSigmaKm,
		}
	}
	emit := func(p geo.Point, travelled float64) {
		trace.Points = append(trace.Points, trajectory.GPSPoint{
			Pos:  noise(p),
			Time: travelled / cfg.SpeedKmh * 3600,
		})
	}
	emit(g.Point(tr.Nodes[0]), 0)
	sinceLast := 0.0
	for i := 0; i+1 < tr.Len(); i++ {
		a := g.Point(tr.Nodes[i])
		b := g.Point(tr.Nodes[i+1])
		segLen := tr.CumDist[i+1] - tr.CumDist[i]
		straight := a.Dist(b)
		pos := 0.0
		for pos < segLen {
			step := math.Min(cfg.SampleEveryKm-sinceLast, segLen-pos)
			pos += step
			sinceLast += step
			if sinceLast >= cfg.SampleEveryKm-1e-12 {
				t := 1.0
				if straight > 0 && segLen > 0 {
					t = pos / segLen
				}
				emit(geo.Lerp(a, b, math.Min(1, t)), tr.CumDist[i]+pos)
				sinceLast = 0
			}
		}
	}
	last := g.Point(tr.Nodes[tr.Len()-1])
	lp := trace.Points[len(trace.Points)-1]
	if lp.Pos.Dist(last) > cfg.SampleEveryKm/4 {
		emit(last, tr.Length())
	}
	return trace
}
