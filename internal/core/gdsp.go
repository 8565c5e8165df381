// Package core implements NETCLUS, the multi-resolution clustering index of
// the paper (§4–§6): Greedy-GDSP distance-based clustering of the road
// network, the ladder of index instances with radii growing by (1+γ), the
// online TOPS-Cluster query over cluster representatives, and dynamic
// updates of sites and trajectories.
package core

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"netclus/internal/fm"
	"netclus/internal/roadnet"
)

// GDSPOptions configures the Greedy-GDSP clustering (§4.1).
type GDSPOptions struct {
	// Radius is the cluster radius R: every member has round-trip distance
	// at most 2R to its cluster center.
	Radius float64
	// UseFM selects the FM-sketch-accelerated center choice of §4.1.2.
	// The exact (lazy submodular) evaluation is used otherwise; both give
	// a greedy dominating set, differing only in center tie decisions.
	UseFM bool
	// F is the number of FM sketch copies when UseFM is set (default 30).
	F int
	// Seed derives the sketch hash family.
	Seed uint64
	// Workers bounds the parallelism of greedyGDSP's own per-node sweep (a
	// build-time knob: the clustering is identical for every value); <= 1
	// runs sequentially. Build's exact rungs skip it (ladderDomCounts).
	Workers int
}

// rawCluster is the output of clustering before metadata enrichment.
type rawCluster struct {
	center  roadnet.NodeID
	members []roadnet.NodeID // includes the center
	dist    []float64        // round-trip distance of each member to center
}

// greedyGDSP partitions all nodes of g into clusters of radius R using the
// greedy (largest incremental dominating set first) heuristic. Dominating
// sets are never materialized globally: the initial sweep stores only the
// count (exact mode: a one-rung ladderDomCounts) or an FM sketch (FM mode)
// per node, and membership is recovered with one extra bounded search per
// chosen center. This keeps memory at O(|V|) where the paper's description
// would need O(Σ|Λ(v)|), while producing the same greedy selection rule.
func greedyGDSP(g *roadnet.Graph, opts GDSPOptions) ([]rawCluster, error) {
	if opts.Radius <= 0 {
		return nil, fmt.Errorf("core: non-positive cluster radius %v", opts.Radius)
	}
	if opts.UseFM {
		return gdspFM(g, opts)
	}
	return gdspExact(g, opts, ladderDomCounts(g, []float64{opts.Radius}, opts.Workers)[0])
}

// domHeapItem is a lazy-greedy heap entry: count is an upper bound of the
// node's incremental dominating-set size.
type domHeapItem struct {
	node  roadnet.NodeID
	count float64
	stamp int32
}

type domHeap []domHeapItem

func (h domHeap) Len() int { return len(h) }
func (h domHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count > h[j].count
	}
	return h[i].node > h[j].node
}
func (h domHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *domHeap) Push(x any)   { *h = append(*h, x.(domHeapItem)) }
func (h *domHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// gdspExact runs lazy greedy with exact incremental counts. Dominance only
// shrinks as nodes get covered, so stale heap counts are upper bounds and a
// freshly re-evaluated top is the true argmax (the CELF argument).
// counts[v] is |Λ(v)| at opts.Radius, from
// ladderDomCounts.
func gdspExact(g *roadnet.Graph, opts GDSPOptions, counts []float64) ([]rawCluster, error) {
	n := g.NumNodes()
	scratch := roadnet.NewScratch(g)
	twoR := 2 * opts.Radius

	h := make(domHeap, 0, n)
	for v := 0; v < n; v++ {
		h = append(h, domHeapItem{node: roadnet.NodeID(v), count: counts[v], stamp: 0})
	}
	heap.Init(&h)

	covered := make([]bool, n)
	remaining := n
	var clusters []rawCluster
	var dom []roadnet.NodeDr
	var stamp int32 = 1
	for remaining > 0 && h.Len() > 0 {
		top := heap.Pop(&h).(domHeapItem)
		if covered[top.node] {
			continue
		}
		if top.stamp != stamp {
			dom = scratch.RoundTrips(g, top.node, twoR, dom)
			cnt := 0
			for _, u := range dom {
				if !covered[u.Node] {
					cnt++
				}
			}
			top.count = float64(cnt)
			top.stamp = stamp
			if h.Len() > 0 && top.count < h[0].count {
				heap.Push(&h, top)
				continue
			}
		}
		// Fresh top: select as a center.
		dom = scratch.RoundTrips(g, top.node, twoR, dom)
		cl := clusterOf(top.node, dom, covered)
		remaining -= len(cl.members)
		if len(cl.members) == 0 {
			// Possible only if the node was covered concurrently; skip.
			continue
		}
		clusters = append(clusters, cl)
		stamp++
	}
	return clusters, nil
}

// gdspFM mirrors §4.1.2: dominating sets are summarized as FM sketches, the
// next center is the node with the largest estimated incremental dominating
// set, found with the sorted-scan + own-estimate-bound pruning of §3.5.
// Cluster membership remains exact via a bounded search per chosen center.
func gdspFM(g *roadnet.Graph, opts GDSPOptions) ([]rawCluster, error) {
	n := g.NumNodes()
	f := opts.F
	if f <= 0 {
		f = 30
	}
	scratch := roadnet.NewScratch(g)
	twoR := 2 * opts.Radius

	// Initial sweep: one bounded search + sketch per node, sharded across
	// the build workers (disjoint sketches[v] / own[v] slots per worker).
	sketches := make([]*fm.Sketch, n)
	own := make([]float64, n)
	parallelSweep(g, n, opts.Workers, func(sc *roadnet.DijkstraScratch, lo, hi int) {
		var dom []roadnet.NodeDr
		for v := lo; v < hi; v++ {
			sk := fm.NewSketchSeeded(f, opts.Seed+1)
			dom = sc.RoundTrips(g, roadnet.NodeID(v), twoR, dom)
			for _, u := range dom {
				sk.Add(uint64(u.Node))
			}
			sketches[v] = sk
			own[v] = sk.Estimate()
		}
	})
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if own[order[a]] != own[order[b]] {
			return own[order[a]] > own[order[b]]
		}
		return order[a] > order[b]
	})

	coveredSketch := fm.NewSketchSeeded(f, opts.Seed+1)
	coveredEst := 0.0
	covered := make([]bool, n)
	remaining := n
	var clusters []rawCluster
	var dom []roadnet.NodeDr
	for remaining > 0 {
		best := -1
		bestMarg := 0.0
		for _, v := range order {
			if covered[v] {
				continue
			}
			if own[v] <= bestMarg {
				break // sorted by own estimate: nothing better remains
			}
			if marg := fm.UnionEstimate(coveredSketch, sketches[v]) - coveredEst; marg > bestMarg {
				best, bestMarg = v, marg
			}
		}
		if best < 0 {
			// Estimates degenerate (all marginals zero) but nodes remain:
			// fall back to any uncovered node to guarantee termination.
			for _, v := range order {
				if !covered[v] {
					best = v
					break
				}
			}
		}
		dom = scratch.RoundTrips(g, roadnet.NodeID(best), twoR, dom)
		cl := clusterOf(roadnet.NodeID(best), dom, covered)
		remaining -= len(cl.members)
		if len(cl.members) > 0 {
			clusters = append(clusters, cl)
			coveredSketch.UnionWith(sketches[best])
			coveredEst = coveredSketch.Estimate()
		}
	}
	return clusters, nil
}

// ladderDomCounts returns counts[p][v] = |Λ_p(v)|, node v's dominating-set
// size at round-trip bound 2·radii[p], for every rung of an ascending
// ladder, from ONE bounded search per node at the top rung's bound. The
// sets nest (Λ_p(v) ⊆ Λ_{p+1}(v)), and a search at a larger bound reports
// the same float distance for every node within a smaller one (its extra
// relaxations all exceed it; no weight is negative), so bucketing each
// reached node into the first rung whose bound (gdspExact's 2*radius float)
// holds it and prefix-summing reproduces per-rung sweeps exactly. Each
// worker owns one scratch and one result buffer and writes only its nodes'
// counts[·][v] slots, so the result is identical for any worker count.
func ladderDomCounts(g *roadnet.Graph, radii []float64, workers int) [][]float64 {
	n, t := g.NumNodes(), len(radii)
	twoRs := make([]float64, t)
	for p, r := range radii {
		twoRs[p] = 2 * r
	}
	counts := make([][]float64, t)
	for p := range counts {
		counts[p] = make([]float64, n)
	}
	type sweeper struct {
		sc  *roadnet.DijkstraScratch
		dom []roadnet.NodeDr
	}
	ws := make([]sweeper, effectiveWorkers(n, workers))
	for w := range ws {
		ws[w].sc = roadnet.NewScratch(g)
	}
	parallelFor(n, len(ws), func(w, lo, hi int) {
		s := &ws[w]
		for v := lo; v < hi; v++ {
			s.dom = s.sc.RoundTrips(g, roadnet.NodeID(v), twoRs[t-1], s.dom)
			for _, u := range s.dom {
				p, _ := slices.BinarySearch(twoRs, u.Dr) // first p with u.Dr <= twoRs[p]
				counts[p][v]++
			}
			for p := 1; p < t; p++ {
				counts[p][v] += counts[p-1][v]
			}
		}
	})
	return counts
}

// clusterOf forms the cluster centred at center from its dominating set:
// every not-yet-covered node of dom joins (and is marked covered), with
// members ordered by node id. It filters dom in place, so the caller's
// buffer holds only the new members afterwards.
func clusterOf(center roadnet.NodeID, dom []roadnet.NodeDr, covered []bool) rawCluster {
	fresh := dom[:0]
	for _, u := range dom {
		if !covered[u.Node] {
			covered[u.Node] = true
			fresh = append(fresh, u)
		}
	}
	slices.SortFunc(fresh, func(a, b roadnet.NodeDr) int { return cmp.Compare(a.Node, b.Node) })
	cl := rawCluster{
		center:  center,
		members: make([]roadnet.NodeID, len(fresh)),
		dist:    make([]float64, len(fresh)),
	}
	for i, u := range fresh {
		cl.members[i], cl.dist[i] = u.Node, u.Dr
	}
	return cl
}
