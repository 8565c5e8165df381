package tops

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
)

// GreedyOptions configures IncGreedy.
type GreedyOptions struct {
	// K is the number of sites to select.
	K int
	// Lazy switches to lazy (CELF-style) marginal re-evaluation instead of
	// the paper's incremental α-update scheme. Both return a greedy
	// maximizer; Lazy trades the SC-side bookkeeping for on-demand TC
	// scans and is benchmarked as an ablation.
	Lazy bool
	// InitialSites seeds the selection with existing service locations
	// (§7.3). They contribute baseline utility but do not count towards K
	// and are not reported in Selected.
	InitialSites []SiteID
	// TargetCoverage, when positive, turns the query into TOPS4 (§7.4):
	// selection continues until at least this fraction of the trajectory
	// universe is covered (positive utility), ignoring K, or until no site
	// adds coverage. Typically combined with the binary preference.
	TargetCoverage float64
}

// GreedyScratch holds every buffer the plain greedy needs, so a caller
// serving repeated queries can run the whole selection without allocating:
// after the buffers have grown to the instance size once, subsequent runs
// reuse them. A scratch must not be used by two greedy runs concurrently.
// The Result returned from a scratch-backed run aliases the scratch's
// Selected and UtilityPerIter buffers — valid until the scratch's next use.
type GreedyScratch struct {
	util     []float64
	marg     []float64
	selected []bool
	sel      []SiteID
	perIter  []float64
	raised   []raised
	one      [1]Part // IncGreedyScratch's identity part
}

// raised is one trajectory whose utility a pick raised from oldU to newU.
type raised struct {
	traj       int32
	oldU, newU float64
}

// prepare sizes the buffers for n local sites over m trajectories and
// clears the state the greedy reads before writing (util and selected; marg
// is fully overwritten by the seeding pass).
func (g *GreedyScratch) prepare(n, m int) {
	g.util = append(g.util[:0], make([]float64, m)...)
	g.marg = slices.Grow(g.marg[:0], n)[:n]
	g.selected = append(g.selected[:0], make([]bool, n)...)
}

// Part is one piece of a partitioned cover: a CoverSets over local site
// indices and the global index each local site stands for. Global indices
// ascend within a part (the argmax's scan relies on it) and name each
// global site in at most one part; -1 marks a local site that is never a
// candidate, and a nil Global is the identity. Trajectory ids are global:
// every part indexes the same trajectory universe, of which its M covers a
// prefix.
type Part struct {
	CS     *CoverSets
	Global []int32
}

// global is local site li's global index, or -1.
func (p *Part) global(li int) int {
	if p.Global == nil {
		return li
	}
	return int(p.Global[li])
}

// local is global site gi's local index in p, or -1 if p does not hold it.
func (p *Part) local(gi int) int {
	if p.Global == nil {
		if gi < p.CS.N() {
			return gi
		}
		return -1
	}
	return slices.Index(p.Global, int32(gi))
}

// IncGreedy is the (1-1/e)-approximate greedy of §3.3 (Algorithm 1). It
// runs on pre-built cover sets, so it serves both the exact algorithm
// (cover sets from the full distance index) and NETCLUS (cover sets over
// cluster representatives).
func IncGreedy(cs *CoverSets, opts GreedyOptions) (Result, error) {
	return IncGreedyScratch(cs, opts, nil)
}

// IncGreedyScratch is IncGreedy running in caller-supplied scratch buffers:
// with a non-nil scratch the plain (non-lazy) greedy performs no heap
// allocation once the buffers have warmed to the instance size, and the
// returned Result's Selected and UtilityPerIter alias the scratch. A nil
// scratch behaves exactly like IncGreedy. The lazy variant ignores the
// scratch (it is an ablation arm, not a hot path).
func IncGreedyScratch(cs *CoverSets, opts GreedyOptions, scratch *GreedyScratch) (Result, error) {
	if opts.Lazy {
		if err := opts.check(cs.N()); err != nil {
			return Result{}, err
		}
		return lazyGreedy(cs, opts), nil
	}
	if scratch == nil {
		scratch = new(GreedyScratch)
	}
	scratch.one[0] = Part{CS: cs}
	res, err := IncGreedyParts(scratch.one[:], cs.N(), opts, scratch)
	scratch.one[0] = Part{}
	return res, err
}

// IncGreedyParts is the plain IncGreedy over a cover partitioned into
// parts, n global sites in all, without merging them: Selected holds global
// indices, and every field of the Result carries the bits IncGreedy would
// return on the merged cover. The answer does not depend on the order of
// parts. The scratch behaves as in IncGreedyScratch; Lazy is rejected.
func IncGreedyParts(parts []Part, n int, opts GreedyOptions, scratch *GreedyScratch) (Result, error) {
	if err := opts.check(n); err != nil {
		return Result{}, err
	}
	if opts.Lazy {
		return Result{}, fmt.Errorf("tops: the lazy greedy runs on one cover")
	}
	if scratch == nil {
		scratch = new(GreedyScratch)
	}
	return partsGreedy(parts, opts, scratch), nil
}

// check validates opts for n sites, turning a target-coverage query's K
// into n.
func (opts *GreedyOptions) check(n int) error {
	if opts.TargetCoverage > 0 {
		if opts.TargetCoverage > 1 {
			return fmt.Errorf("tops: target coverage %v > 1", opts.TargetCoverage)
		}
		opts.K = n
	}
	if opts.K <= 0 || opts.K > n {
		return fmt.Errorf("tops: invalid k = %d for %d sites", opts.K, n)
	}
	for _, s := range opts.InitialSites {
		if int(s) < 0 || int(s) >= n {
			return fmt.Errorf("tops: initial site %d out of range", s)
		}
	}
	return nil
}

// seedUtilities applies existing services and returns the per-trajectory
// utility baseline plus its sum (lazyGreedy's seeding; partsGreedy inlines
// the same loop over its scratch to stay allocation-free).
func seedUtilities(cs *CoverSets, initial []SiteID) ([]float64, float64, map[SiteID]bool) {
	cs.ensure()
	util := make([]float64, cs.M)
	existing := make(map[SiteID]bool, len(initial))
	for _, s := range initial {
		existing[s] = true
		trajs, scores := cs.TC(int32(s))
		for i, t := range trajs {
			if scores[i] > util[t] {
				util[t] = scores[i]
			}
		}
	}
	var base float64
	for _, u := range util {
		base += u
	}
	return util, base, existing
}

// partsGreedy is the paper's Algorithm 1: incremental marginal maintenance
// through the α_{ji} identities (α_{ji} = max(0, ψ_{ji} − U_j), kept
// implicit as the paper's update rule only needs the delta). Marginals and
// selection flags are kept per part, as consecutive slices of the scratch;
// the utility vector is global. Every marginal slot sees the float sequence
// it would see in one merged cover: its initial sum in TC order, then one
// update per raised trajectory in the winner's TC order. The inner loops
// run over the CSR arrays directly: contiguous scans, no interface or
// bounds-escaping indirection.
func partsGreedy(parts []Part, opts GreedyOptions, g *GreedyScratch) Result {
	universe, total := 0, 0
	for i := range parts {
		cs := parts[i].CS
		cs.ensure()
		universe = max(universe, cs.M)
		total += cs.N()
	}
	g.prepare(total, universe)
	util, marg, selected := g.util, g.marg, g.selected

	// Seed the baseline from existing services (§7.3) and count coverage.
	// The float-op order matches seedUtilities exactly: apply sites in the
	// caller's order, then sum util left to right.
	var base float64
	covered := 0
	for _, s := range opts.InitialSites {
		off := 0
		for i := range parts {
			cs := parts[i].CS
			if li := parts[i].local(int(s)); li >= 0 {
				selected[off+li] = true
				for j := cs.tcOff[li]; j < cs.tcOff[li+1]; j++ {
					if t := cs.tcTraj[j]; cs.tcScore[j] > util[t] {
						util[t] = cs.tcScore[j]
					}
				}
				break
			}
			off += cs.N()
		}
	}
	if len(opts.InitialSites) > 0 {
		for _, u := range util {
			base += u
		}
		covered = countCovered(util)
	}

	// marg[s] = Σ_{T ∈ TC(s)} max(0, ψ − U_T); with no existing services
	// this equals the site weight w_s — bit-exactly when every score is
	// positive, because both are the same left-to-right sum — so the
	// common case seeds with one copy instead of scanning every pair.
	// Never-candidate slots are marked selected, so the argmax skips them.
	off := 0
	for i := range parts {
		cs := parts[i].CS
		n := cs.N()
		pm := marg[off : off+n]
		for li, gi := range parts[i].Global {
			if gi < 0 {
				selected[off+li] = true
			}
		}
		if len(opts.InitialSites) == 0 && cs.allPositive {
			copy(pm, cs.Weights)
		} else {
			for s := 0; s < n; s++ {
				var m float64
				for j := cs.tcOff[s]; j < cs.tcOff[s+1]; j++ {
					if d := cs.tcScore[j] - util[cs.tcTraj[j]]; d > 0 {
						m += d
					}
				}
				pm[s] = m
			}
		}
		off += n
	}

	res := Result{Utility: base, Selected: g.sel[:0], UtilityPerIter: g.perIter[:0]}
	for len(res.Selected) < opts.K {
		if opts.TargetCoverage > 0 && float64(covered) >= opts.TargetCoverage*float64(universe) {
			break
		}
		// Argmax under the exact (marginal, weight, global index)
		// tie-break: each part's winner, then the greatest of those. Within
		// a part the incumbent's key stays in locals; global indices ascend
		// with the scan, so s beats the incumbent on greaterSite's final
		// index tie-break and the test reduces to m > bm || (m == bm && w >=
		// bw) — equivalent to greaterSite for every float (including NaN,
		// where both keep the incumbent).
		best, bestPart, bestOff, bestGlobal := -1, -1, 0, -1
		var bestMarg, bestWeight float64
		off := 0
		for i := range parts {
			cs := parts[i].CS
			n := cs.N()
			pm, ps, weights := marg[off:off+n], selected[off:off+n], cs.Weights[:n]
			lb := -1
			var lm, lw float64
			for s := 0; s < n; s++ {
				if ps[s] {
					continue
				}
				m := pm[s]
				if lb >= 0 && !(m > lm || (m == lm && weights[s] >= lw)) {
					continue
				}
				lb, lm, lw = s, m, weights[s]
			}
			if lb >= 0 {
				if gi := parts[i].global(lb); best < 0 || greaterSite(lm, lw, gi, bestMarg, bestWeight, bestGlobal) {
					best, bestPart, bestOff, bestGlobal, bestMarg, bestWeight = off+lb, i, off, gi, lm, lw
				}
			}
			off += n
		}
		if best < 0 {
			break // everything selected
		}
		if opts.TargetCoverage > 0 && bestMarg <= 0 {
			break // no site adds coverage; target unreachable
		}
		selected[best] = true
		res.Selected = append(res.Selected, SiteID(bestGlobal))
		res.Utility += bestMarg
		res.UtilityPerIter = append(res.UtilityPerIter, res.Utility)
		// Update trajectory utilities (lines 11–13 of Algorithm 1), noting
		// each one the pick raised.
		wcs := parts[bestPart].CS
		li := best - bestOff
		trajs := wcs.tcTraj[wcs.tcOff[li]:wcs.tcOff[li+1]]
		tscores := wcs.tcScore[wcs.tcOff[li] : wcs.tcOff[li]+int32(len(trajs))]
		up := g.raised[:0]
		for i, t := range trajs {
			if oldU := util[t]; tscores[i] > oldU {
				util[t] = tscores[i]
				if oldU == 0 {
					covered++
				}
				up = append(up, raised{t, oldU, tscores[i]})
			}
		}
		g.raised = up
		if len(res.Selected) == opts.K {
			break // no marginal is read after the last pick
		}
		// Propagate the marginal deltas to the covering sites (lines 14–17),
		// one part at a time: a part's slots take the raised trajectories in
		// TC order, whichever part they sit in. The scatter deliberately
		// writes stale deltas into already-selected (and never-candidate)
		// sites' marg slots too: those slots are dead (the argmax skips
		// them), and dropping the selected[ss] load removes a random byte
		// access per covering pair from the hottest loop in the query path.
		// The re-sliced segments let the compiler drop the per-element
		// bounds checks.
		off = 0
		for p := range parts {
			cs := parts[p].CS
			n := cs.N()
			pm := marg[off : off+n]
			off += n
			scOff, scSite, scScore := cs.scOff, cs.scSite, cs.scScore
			for _, r := range up {
				if int(r.traj) >= cs.M {
					continue
				}
				sites := scSite[scOff[r.traj]:scOff[r.traj+1]]
				scores := scScore[scOff[r.traj] : scOff[r.traj]+int32(len(sites))]
				for j, ss := range sites {
					oldGain := scores[j] - r.oldU
					if oldGain <= 0 {
						continue
					}
					newGain := scores[j] - r.newU
					if newGain < 0 {
						newGain = 0
					}
					pm[ss] -= oldGain - newGain
				}
			}
		}
		marg[best] = 0
	}
	res.Covered = covered
	// Keep any growth the appends produced for the scratch's next run.
	g.sel, g.perIter = res.Selected, res.UtilityPerIter
	return res
}

// siteHeap is a max-heap of (marginal, weight, site) used by lazyGreedy.
type siteHeapItem struct {
	site  int32
	marg  float64
	stamp int32 // iteration at which marg was computed
}

type siteHeap []siteHeapItem

func (h siteHeap) Len() int { return len(h) }
func (h siteHeap) Less(i, j int) bool {
	if h[i].marg != h[j].marg {
		return h[i].marg > h[j].marg
	}
	return h[i].site > h[j].site
}
func (h siteHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *siteHeap) Push(x any)       { *h = append(*h, x.(siteHeapItem)) }
func (h *siteHeap) Pop() any         { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h siteHeap) peekMarg() float64 { return h[0].marg }

// lazyGreedy exploits submodularity: marginals only shrink, so a stale
// heap value is an upper bound and a popped site whose value is fresh for
// the current iteration is the true argmax (CELF).
func lazyGreedy(cs *CoverSets, opts GreedyOptions) Result {
	cs.ensure()
	n := cs.N()
	util, base, existing := seedUtilities(cs, opts.InitialSites)
	tcOff, tcTraj, tcScore := cs.tcOff, cs.tcTraj, cs.tcScore

	evalMarg := func(s int32) float64 {
		var m float64
		for i := tcOff[s]; i < tcOff[s+1]; i++ {
			if g := tcScore[i] - util[tcTraj[i]]; g > 0 {
				m += g
			}
		}
		return m
	}
	h := make(siteHeap, 0, n)
	for s := 0; s < n; s++ {
		if existing[SiteID(s)] {
			continue
		}
		h = append(h, siteHeapItem{site: int32(s), marg: evalMarg(int32(s)), stamp: 0})
	}
	heap.Init(&h)

	res := Result{Utility: base}
	covered := countCovered(util)
	for iter := int32(1); len(res.Selected) < opts.K && h.Len() > 0; {
		if opts.TargetCoverage > 0 && float64(covered) >= opts.TargetCoverage*float64(cs.M) {
			break
		}
		top := heap.Pop(&h).(siteHeapItem)
		if top.stamp != iter {
			top.marg = evalMarg(top.site)
			top.stamp = iter
			if h.Len() > 0 && top.marg < h.peekMarg() {
				heap.Push(&h, top)
				continue
			}
		}
		if opts.TargetCoverage > 0 && top.marg <= 0 {
			break
		}
		res.Selected = append(res.Selected, SiteID(top.site))
		res.Utility += top.marg
		for i := tcOff[top.site]; i < tcOff[top.site+1]; i++ {
			t := tcTraj[i]
			if tcScore[i] > util[t] {
				if util[t] == 0 {
					covered++
				}
				util[t] = tcScore[i]
			}
		}
		res.UtilityPerIter = append(res.UtilityPerIter, res.Utility)
		iter++
	}
	res.Covered = covered
	return res
}

// greaterSite implements the paper's tie-breaking: larger marginal first,
// then larger weight, then higher index.
func greaterSite(m1, w1 float64, s1 int, m2, w2 float64, s2 int) bool {
	if m1 != m2 {
		return m1 > m2
	}
	if w1 != w2 {
		return w1 > w2
	}
	return s1 > s2
}

func countCovered(util []float64) int {
	c := 0
	for _, u := range util {
		if u > 0 {
			c++
		}
	}
	return c
}

// GreedyUpperBoundGap returns the worst-case optimality gap of a greedy
// result given Theorem 3: U(greedy) >= max{1-1/e, k/n}·OPT.
func GreedyUpperBoundGap(k, n int) float64 {
	bound := 1 - 1/math.E
	if kn := float64(k) / float64(n); kn > bound {
		bound = kn
	}
	return bound
}
