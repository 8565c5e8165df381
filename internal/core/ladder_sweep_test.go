package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"netclus/internal/gen"
	"netclus/internal/geo"
	"netclus/internal/roadnet"
)

// perRungSweep is the per-rung |Λ(v)| sweep ladderDomCounts replaced,
// frozen verbatim (it was sweepDomCounts): one bounded search per node at
// one rung's round-trip bound twoR.
func perRungSweep(g *roadnet.Graph, twoR float64, workers int) []float64 {
	n := g.NumNodes()
	counts := make([]float64, n)
	parallelSweep(g, n, workers, func(sc *roadnet.DijkstraScratch, lo, hi int) {
		var dom []roadnet.NodeDr
		for v := lo; v < hi; v++ {
			dom = sc.RoundTrips(g, roadnet.NodeID(v), twoR, dom)
			counts[v] = float64(len(dom))
		}
	})
	return counts
}

// zeroWeight stands in for a zero-weight edge, which AddEdge rejects: the
// smallest positive float adds exactly 0 to any distance past a real edge.
const zeroWeight = math.SmallestNonzeroFloat64

// ladderTestGraph is a random graph of two parts no edge joins, with
// one-way edges only and a few zero-weight edges (some both ways). With
// integral set the other weights are 1, 2 or 3 km, so round trips land
// exactly on half-integral radii.
func ladderTestGraph(rng *rand.Rand, n int, integral bool) *roadnet.Graph {
	g := roadnet.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{})
	}
	half := n / 2
	for e := 0; e < 3*n; e++ {
		lo, hi := 0, half
		if e%2 == 1 {
			lo, hi = half, n
		}
		u, v := roadnet.NodeID(lo+rng.Intn(hi-lo)), roadnet.NodeID(lo+rng.Intn(hi-lo))
		if u == v {
			continue
		}
		w := 0.05 + rng.Float64()
		if integral {
			w = float64(1 + rng.Intn(3))
		}
		if rng.Intn(20) == 0 {
			w = zeroWeight
			if rng.Intn(2) == 0 {
				_ = g.AddEdge(v, u, w)
			}
		}
		_ = g.AddEdge(u, v, w)
	}
	return g
}

// checkLadder compares every counts[p][v] of ladderDomCounts against a
// per-rung sweep at 2·radii[p].
func checkLadder(t *testing.T, g *roadnet.Graph, radii []float64, workers int) {
	t.Helper()
	got := ladderDomCounts(g, radii, workers)
	if len(got) != len(radii) {
		t.Fatalf("%d rungs of counts for %d radii", len(got), len(radii))
	}
	for p, r := range radii {
		want := perRungSweep(g, 2*r, 1)
		if !slices.Equal(got[p], want) {
			for v := range want {
				if got[p][v] != want[v] {
					t.Fatalf("radii %v, workers %d: counts[%d][%d] = %v, per-rung sweep %v",
						radii, workers, p, v, got[p][v], want[v])
				}
			}
		}
	}
}

func TestLadderDomCountsMatchPerRungSweep(t *testing.T) {
	for _, integral := range []bool{true, false} {
		rng := rand.New(rand.NewSource(11))
		g := ladderTestGraph(rng, 300, integral)
		for rungs := 1; rungs <= 12; rungs++ {
			radii := make([]float64, rungs)
			if integral {
				// Half-integral radii: every 2R is a whole number of km,
				// exactly the round trips of the 1–3 km edges; repeats
				// make equal bounds on neighbouring rungs.
				for p := range radii {
					radii[p] = float64(rng.Intn(9)) / 2
				}
				slices.Sort(radii)
			} else {
				r0, gamma := 0.05+rng.Float64()/2, 0.25+rng.Float64()*0.75
				for p := range radii {
					radii[p] = r0 * math.Pow(1+gamma, float64(p))
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				checkLadder(t, g, radii, workers)
			}
		}
	}
}

// FuzzLadderDomCounts: edges are (u, v, weight in quarter km; 0 is a
// zero-weight edge) triples, ladder bytes are radii in eighths of a km
// (so 2R lies on the quarter-km grid of the weights), sorted into a 1–12
// rung ladder.
func FuzzLadderDomCounts(f *testing.F) {
	f.Add(uint8(8), uint8(2), []byte{0, 1, 4, 1, 0, 4, 1, 2, 0, 2, 1, 8, 5, 6, 2}, []byte{4, 8, 16})
	f.Add(uint8(40), uint8(3), []byte{0, 1, 0, 1, 0, 0, 3, 4, 255}, []byte{0, 0, 255})
	f.Add(uint8(63), uint8(7), []byte{}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, nodes, workers uint8, edges, ladder []byte) {
		n := int(nodes)%64 + 1
		g := roadnet.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(geo.Point{})
		}
		for ; len(edges) >= 3; edges = edges[3:] {
			u, v := roadnet.NodeID(int(edges[0])%n), roadnet.NodeID(int(edges[1])%n)
			w := float64(edges[2]) / 4
			if w == 0 {
				w = zeroWeight
			}
			_ = g.AddEdge(u, v, w) // self loops are rejected; skip them
		}
		if len(ladder) > 12 {
			ladder = ladder[:12]
		}
		radii := []float64{1}
		if len(ladder) > 0 {
			radii = radii[:0]
			for _, b := range ladder {
				radii = append(radii, float64(b)/8)
			}
			slices.Sort(radii)
		}
		checkLadder(t, g, radii, int(workers)%8+1)
	})
}

// TestLadderDomCountsAllocs guards the sweep's buffers: every worker owns
// one scratch, one result buffer and one histogram for the whole sweep, so
// allocations grow with workers and rungs (≈ 45 per worker here, most of
// them the buffers' growth), not with the number of 16-node blocks (125 on
// this 2 000-node graph). A result buffer per block pays that growth per
// block: ≈ 1 400 allocations at 2 workers. One worker runs a single block,
// so only the 2-worker case can tell the two apart.
func TestLadderDomCountsAllocs(t *testing.T) {
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 2000, SpanKm: 12, Jitter: 0.2,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	radii := make([]float64, 9)
	for p := range radii {
		radii[p] = 0.032 * math.Pow(1.75, float64(p))
	}
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(2, func() { ladderDomCounts(city.Graph, radii, workers) })
		t.Logf("workers %d: %.0f allocations", workers, allocs)
		if limit := float64(16 * (workers + len(radii))); allocs > limit {
			t.Errorf("workers %d: %.0f allocations per sweep, want <= %.0f", workers, allocs, limit)
		}
	}
}
