// Package dataset provides named dataset presets mirroring Table 6 of the
// paper at a configurable scale.
//
// The paper's datasets are the T-Drive Beijing taxi traces (real) and
// MNTG-generated traffic for New York, Atlanta and Bangalore (synthetic).
// Neither is available offline, so every preset here is synthesized by
// internal/gen with the topology class and relative size of its namesake
// (see DESIGN.md §2 for the substitution argument). Scale 1.0 approximates
// the paper's row; the default experiment scale is far smaller so that the
// full suite runs on a laptop.
package dataset

import (
	"fmt"
	"math"
	"sort"

	"netclus/internal/gen"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// Preset names a dataset of Table 6.
type Preset string

const (
	// BeijingSmall is the 1 000-trajectory / 50-site sample used for the
	// comparison against the exact optimum (Fig. 4).
	BeijingSmall Preset = "beijing-small"
	// Beijing is the main dataset: ring-mesh topology, sites = all nodes.
	Beijing Preset = "beijing"
	// Bangalore is the polycentric synthetic city.
	Bangalore Preset = "bangalore"
	// NewYork is the star-topology synthetic city.
	NewYork Preset = "newyork"
	// Atlanta is the grid-mesh synthetic city.
	Atlanta Preset = "atlanta"
)

// Presets lists all known presets.
func Presets() []Preset {
	return []Preset{BeijingSmall, Beijing, Bangalore, NewYork, Atlanta}
}

// Dataset is a fully assembled TOPS problem instance plus its provenance.
type Dataset struct {
	Name     Preset
	City     *gen.City
	Instance *tops.Instance
	// Scale is the fraction of the paper's size this dataset was built at.
	Scale float64
}

// spec captures the paper-scale parameters of one preset.
type spec struct {
	topology  gen.Topology
	nodes     int // paper-scale node count
	trajs     int // paper-scale trajectory count
	sites     int // paper-scale candidate sites; 0 = all nodes
	spanKm    float64
	minNodes  int
	minTrajs  int
	siteFixed bool // sites do not scale (Beijing-Small's fixed 50)
}

var specs = map[Preset]spec{
	BeijingSmall: {topology: gen.RingMesh, nodes: 8000, trajs: 1000, sites: 50, spanKm: 10, minNodes: 400, minTrajs: 120, siteFixed: true},
	Beijing:      {topology: gen.RingMesh, nodes: 269686, trajs: 123179, sites: 0, spanKm: 41, minNodes: 2500, minTrajs: 800},
	Bangalore:    {topology: gen.Polycentric, nodes: 61563, trajs: 9950, sites: 0, spanKm: 28, minNodes: 2000, minTrajs: 500},
	NewYork:      {topology: gen.Star, nodes: 355930, trajs: 9950, sites: 0, spanKm: 40, minNodes: 2000, minTrajs: 500},
	Atlanta:      {topology: gen.GridMesh, nodes: 389680, trajs: 9950, sites: 0, spanKm: 45, minNodes: 2000, minTrajs: 500},
}

// Config controls dataset materialization.
type Config struct {
	// Scale multiplies the paper-scale node and trajectory counts. The
	// geographic span shrinks with sqrt(Scale) so road density stays
	// city-like.
	Scale float64
	// Seed drives all generation.
	Seed int64
}

// Load builds the named preset at the requested scale. Counts are floored
// at small per-preset minima so that tiny scales still produce meaningful
// instances.
func Load(name Preset, cfg Config) (*Dataset, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown preset %q (have %v)", name, Presets())
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.04
	}
	nodes := maxInt(sp.minNodes, int(float64(sp.nodes)*cfg.Scale))
	trajs := maxInt(sp.minTrajs, int(float64(sp.trajs)*cfg.Scale))
	span := sp.spanKm * math.Sqrt(math.Max(cfg.Scale, float64(nodes)/float64(sp.nodes)))
	if span < 6 {
		span = 6
	}
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: sp.topology, Nodes: nodes, SpanKm: span, Jitter: 0.25,
		OneWayFrac: 0.12, RemoveFrac: 0.05, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: trajs, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	siteCount := 0 // all nodes
	if sp.sites > 0 {
		if sp.siteFixed {
			siteCount = sp.sites
		} else {
			siteCount = maxInt(20, int(float64(sp.sites)*cfg.Scale))
		}
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: siteCount, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	return &Dataset{Name: name, City: city, Instance: inst, Scale: cfg.Scale}, nil
}

// Summary describes the dataset in Table 6 form.
func (d *Dataset) Summary() string {
	return fmt.Sprintf("%s: %d nodes, %d edges, %d trajectories, %d sites (scale %.3f)",
		d.Name, d.Instance.G.NumNodes(), d.Instance.G.NumEdges(),
		d.Instance.M(), d.Instance.N(), d.Scale)
}

// SampleTrajectoryIDs returns n deterministic trajectory ids (evenly
// spaced) for sub-sampling experiments.
func (d *Dataset) SampleTrajectoryIDs(n int) []trajectory.ID {
	m := d.Instance.M()
	if n >= m {
		ids := make([]trajectory.ID, m)
		for i := range ids {
			ids[i] = trajectory.ID(i)
		}
		return ids
	}
	ids := make([]trajectory.ID, 0, n)
	step := float64(m) / float64(n)
	seen := map[trajectory.ID]bool{}
	for i := 0; i < n; i++ {
		id := trajectory.ID(math.Min(float64(m-1), float64(i)*step))
		for seen[id] {
			id = (id + 1) % trajectory.ID(m)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
