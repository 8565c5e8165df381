package bench

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"time"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// Ablation 1: cluster representative strategy (§4.2 of the paper discusses
// closest-to-center vs most-frequently-accessed and picks the former as
// "marginally better"). We re-run queries with representatives swapped to
// the most-frequent site per cluster and compare.
func init() {
	register(Experiment{
		ID:    "ablation-rep",
		Title: "Ablation: representative choice — closest-to-center vs most-frequent site",
		Run: func(h *Harness) (*Table, error) {
			d, err := h.Dataset(dataset.Beijing)
			if err != nil {
				return nil, err
			}
			distIdx, err := h.DistIndex(dataset.Beijing, stdDmax)
			if err != nil {
				return nil, err
			}
			idx, err := h.NetClus(dataset.Beijing, stdGamma, stdTauMin, stdTauMax)
			if err != nil {
				return nil, err
			}
			eng, err := h.Engine(dataset.Beijing, stdGamma, stdTauMin, stdTauMax)
			if err != nil {
				return nil, err
			}
			pref := tops.Binary(defaultTau)
			m := float64(d.Instance.M())

			baseQ, err := eng.Query(context.Background(), core.QueryOptions{K: defaultK, Pref: pref})
			if err != nil {
				return nil, err
			}
			baseU, _ := idx.EvaluateExact(distIdx, pref, baseQ.Sites)

			// Build a second index and swap in most-frequent representatives.
			idx2, err := core.Build(d.Instance, core.Options{
				Gamma: stdGamma, TauMin: stdTauMin, TauMax: stdTauMax,
				GDSP: core.GDSPOptions{UseFM: true, F: 16, Seed: uint64(h.cfg.Seed)},
			})
			if err != nil {
				return nil, err
			}
			siteSet := map[roadnet.NodeID]bool{}
			for _, s := range d.Instance.Sites {
				siteSet[s] = true
			}
			// Node -> trajectory frequency.
			freq := make([]int, d.Instance.G.NumNodes())
			d.Instance.Trajs.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) {
				for _, v := range tr.Nodes {
					freq[v]++
				}
			})
			for _, ins := range idx2.Instances {
				for ci := range ins.Clusters {
					cl := &ins.Clusters[ci]
					best, bestFreq := roadnet.InvalidNode, -1
					bestDr := math.Inf(1)
					for i, v := range cl.Members {
						if siteSet[v] && freq[v] > bestFreq {
							best, bestFreq, bestDr = v, freq[v], cl.MemberDr[i]
						}
					}
					if best != roadnet.InvalidNode {
						cl.Rep = best
						cl.RepDr = bestDr
					}
				}
			}
			eng2, err := wrapEngine(idx2)
			if err != nil {
				return nil, err
			}
			freqQ, err := eng2.Query(context.Background(), core.QueryOptions{K: defaultK, Pref: pref})
			if err != nil {
				return nil, err
			}
			freqU, _ := idx2.EvaluateExact(distIdx, pref, freqQ.Sites)

			tbl := &Table{
				ID:      "ablation-rep",
				Title:   "Representative strategy",
				Headers: []string{"strategy", "util%"},
			}
			tbl.AddRow("closest-to-center", fmtPct(baseU/m))
			tbl.AddRow("most-frequent", fmtPct(freqU/m))
			tbl.AddNote("paper: the two are close with closest-to-center marginally better (§4.2)")
			return tbl, nil
		},
	})
}

// Ablation 2: plain (paper Algorithm 1) vs lazy (CELF) greedy evaluation.
func init() {
	register(Experiment{
		ID:    "ablation-lazy",
		Title: "Ablation: plain incremental greedy vs lazy (CELF) evaluation",
		Run: func(h *Harness) (*Table, error) {
			distIdx, err := h.DistIndex(dataset.Beijing, stdDmax)
			if err != nil {
				return nil, err
			}
			tbl := &Table{
				ID:      "ablation-lazy",
				Title:   "Greedy evaluation strategy",
				Headers: []string{"tau km", "k", "plain ms", "lazy ms", "utility equal?"},
			}
			ks := []int{5, 25}
			if h.cfg.Quick {
				ks = []int{5}
			}
			for _, tau := range []float64{0.4, 0.8} {
				cs, err := tops.BuildCoverSets(distIdx, tops.Binary(tau))
				if err != nil {
					return nil, err
				}
				for _, k := range ks {
					t0 := time.Now()
					plain, err := tops.IncGreedy(cs, tops.GreedyOptions{K: k})
					if err != nil {
						return nil, err
					}
					plainSec := time.Since(t0).Seconds()
					t1 := time.Now()
					lazy := lazyGreedy(cs, k)
					lazySec := time.Since(t1).Seconds()
					tbl.AddRow(fmtF(tau), fmt.Sprint(k), fmtMs(plainSec), fmtMs(lazySec),
						fmt.Sprint(math.Abs(plain.Utility-lazy) < 1e-9))
				}
			}
			tbl.AddNote("both are greedy maximizers; lazy avoids SC-side updates at the cost of re-scans")
			return tbl, nil
		},
	})
}

// lazyGreedy is ablation-lazy's baseline: the greedy with lazy (CELF)
// marginal re-evaluation in place of Algorithm 1's incremental α-update. It
// picks min(k, n) sites and returns their utility. Marginals only shrink
// (Theorem 2), so a stale heap value is an upper bound, and a popped site
// whose value is fresh for the current pick is the true argmax; ties break
// towards the higher site index.
func lazyGreedy(cs *tops.CoverSets, k int) float64 {
	util := make([]float64, cs.M)
	marg := func(s int32) float64 {
		trajs, scores := cs.TC(s)
		var m float64
		for i, t := range trajs {
			if g := scores[i] - util[t]; g > 0 {
				m += g
			}
		}
		return m
	}
	h := make(lazyHeap, cs.N())
	for s := range h {
		h[s] = lazyItem{site: int32(s), marg: marg(int32(s))}
	}
	heap.Init(&h)
	var total float64
	for picked := 0; picked < k && h.Len() > 0; {
		top := heap.Pop(&h).(lazyItem)
		if top.stamp != picked {
			top.marg, top.stamp = marg(top.site), picked
			if h.Len() > 0 && top.marg < h[0].marg {
				heap.Push(&h, top)
				continue
			}
		}
		total += top.marg
		trajs, scores := cs.TC(top.site)
		for i, t := range trajs {
			util[t] = max(util[t], scores[i])
		}
		picked++
	}
	return total
}

// lazyItem is a site's marginal as of pick stamp.
type lazyItem struct {
	site  int32
	marg  float64
	stamp int
}

// lazyHeap is a max-heap of sites by (marginal, site index).
type lazyHeap []lazyItem

func (h lazyHeap) Len() int { return len(h) }
func (h lazyHeap) Less(i, j int) bool {
	if h[i].marg != h[j].marg {
		return h[i].marg > h[j].marg
	}
	return h[i].site > h[j].site
}
func (h lazyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap) Push(x any)   { *h = append(*h, x.(lazyItem)) }
func (h *lazyHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Ablation 3: trajectory compression. The index stores one TL entry per
// (trajectory, cluster) — collapsing consecutive same-cluster nodes (§4.3).
// We report the achieved compression ratio per instance.
func init() {
	register(Experiment{
		ID:    "ablation-compression",
		Title: "Ablation: trajectory compression ratio per index instance",
		Run: func(h *Harness) (*Table, error) {
			d, err := h.Dataset(dataset.Beijing)
			if err != nil {
				return nil, err
			}
			idx, err := h.NetClus(dataset.Beijing, stdGamma, stdTauMin, stdTauMax)
			if err != nil {
				return nil, err
			}
			rawNodes := 0
			d.Instance.Trajs.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) {
				rawNodes += tr.Len()
			})
			tbl := &Table{
				ID:      "ablation-compression",
				Title:   "Trajectory compression",
				Headers: []string{"R_p km", "raw nodes", "TL entries", "compression"},
			}
			for p := range idx.Instances {
				entries := 0
				for ci := range idx.Instances[p].Clusters {
					entries += len(idx.Instances[p].Clusters[ci].TL)
				}
				tbl.AddRow(fmt.Sprintf("%.4f", idx.Instances[p].Radius),
					fmt.Sprint(rawNodes), fmt.Sprint(entries),
					mustRatio(float64(entries), float64(rawNodes)))
			}
			tbl.AddNote("coarser instances compress more — the driver of NETCLUS's memory wins (Table 9)")
			return tbl, nil
		},
	})
}

// Ablation 5: update-path cost — the paper's §3.4 argument that INC-GREEDY
// "is not amenable to updates" made measurable: adding the same batch of
// trajectories through the baseline's distance index (two bounded searches
// per trajectory node) versus the NETCLUS index (a walk through the
// clustering).
func init() {
	register(Experiment{
		ID:    "ablation-updatecost",
		Title: "Ablation: trajectory-add cost — INCG distance index vs NETCLUS index",
		Run: func(h *Harness) (*Table, error) {
			d, err := h.Dataset(dataset.Beijing)
			if err != nil {
				return nil, err
			}
			batch := 200
			if h.cfg.Quick {
				batch = 40
			}
			fresh, err := gen.GenerateTrajectories(d.City, gen.TrajConfig{Count: batch, Seed: h.cfg.Seed + 31})
			if err != nil {
				return nil, err
			}
			// Private copies so the harness's cached artifacts stay clean.
			privStore := trajectory.NewStore(d.Instance.M())
			d.Instance.Trajs.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) { privStore.Add(tr) })
			inst, err := tops.NewInstance(d.Instance.G, privStore, d.Instance.Sites)
			if err != nil {
				return nil, err
			}
			distIdx, err := tops.BuildDistanceIndex(inst, stdDmax)
			if err != nil {
				return nil, err
			}
			ncIdx, err := core.Build(inst, core.Options{
				Gamma: stdGamma, TauMin: stdTauMin, TauMax: stdTauMax,
				GDSP: core.GDSPOptions{UseFM: true, F: 16, Seed: uint64(h.cfg.Seed)},
			})
			if err != nil {
				return nil, err
			}
			ncEng, err := wrapEngine(ncIdx)
			if err != nil {
				return nil, err
			}
			// NETCLUS first: it appends to the shared store, then the
			// baseline indexes the same appended trajectories.
			t0 := time.Now()
			start := inst.M()
			for i := 0; i < fresh.Len(); i++ {
				if _, err := ncEng.AddTrajectory(fresh.Get(trajectory.ID(i))); err != nil {
					return nil, err
				}
			}
			ncSec := time.Since(t0).Seconds()
			t1 := time.Now()
			for i := 0; i < fresh.Len(); i++ {
				tid := trajectory.ID(start + i)
				if err := distIdx.AddTrajectory(tid, privStore.Get(tid)); err != nil {
					return nil, err
				}
			}
			incgSec := time.Since(t1).Seconds()
			tbl := &Table{
				ID:      "ablation-updatecost",
				Title:   "Per-batch trajectory-add cost",
				Headers: []string{"batch", "INCG dist-index s", "NETCLUS s", "INCG/NC"},
			}
			tbl.AddRow(fmt.Sprint(batch), fmtF(incgSec), fmtF(ncSec), mustRatio(ncSec, incgSec))
			tbl.AddNote("§3.4: the baseline re-runs bounded searches per trajectory node; NETCLUS only walks the clustering")
			return tbl, nil
		},
	})
}

// Ablation 4: FM bound pruning in FMGreedy — scan with the sorted
// own-estimate early exit (paper §3.5) vs exhaustive scan.
func init() {
	register(Experiment{
		ID:    "ablation-fmprune",
		Title: "Ablation: FM sketch union-scan pruning effectiveness",
		Run: func(h *Harness) (*Table, error) {
			distIdx, err := h.DistIndex(dataset.Beijing, stdDmax)
			if err != nil {
				return nil, err
			}
			cs, err := tops.BuildCoverSets(distIdx, tops.Binary(defaultTau))
			if err != nil {
				return nil, err
			}
			tbl := &Table{
				ID:      "ablation-fmprune",
				Title:   "FM pruning",
				Headers: []string{"f", "FMG ms", "selected", "util%"},
			}
			m := float64(cs.M)
			for _, f := range []int{8, 30} {
				t0 := time.Now()
				res, err := tops.FMGreedy(cs, tops.FMGreedyOptions{K: defaultK, F: f, Seed: uint64(h.cfg.Seed)})
				if err != nil {
					return nil, err
				}
				sec := time.Since(t0).Seconds()
				tbl.AddRow(fmt.Sprint(f), fmtMs(sec), fmt.Sprint(len(res.Selected)), fmtPct(res.Utility/m))
			}
			tbl.AddNote("the sorted own-estimate bound (paper §3.5) stops each scan early; larger f costs linearly more per union")
			return tbl, nil
		},
	})
}
