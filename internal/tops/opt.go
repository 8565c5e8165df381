package tops

import (
	"fmt"
	"sort"
)

// OptimalOptions configures the exact solver.
type OptimalOptions struct {
	// K is the number of sites to select.
	K int
	// MaxNodes caps the number of branch-and-bound nodes explored; 0 means
	// unlimited. When the cap triggers, the best solution found so far is
	// returned with Exact = false.
	MaxNodes int64
}

// Optimal solves TOPS exactly by branch and bound. The paper formulates the
// exact algorithm as an ILP solved by an external solver (§3.1); this reproduction
// substitutes an equivalent exact maximizer: depth-first search over site
// subsets with a submodular upper bound. For any partial selection Q the
// best reachable utility is bounded by
//
//	U(Q) + Σ of the (k − |Q|) largest marginal gains of the remaining sites
//
// which is valid because marginal gains only shrink as Q grows
// (Theorem 2). Like the paper's ILP (Fig. 4), it is practical only on
// Beijing-Small-sized inputs.
func Optimal(cs *CoverSets, opts OptimalOptions) (Result, error) {
	n := cs.N()
	if opts.K <= 0 || opts.K > n {
		return Result{}, fmt.Errorf("tops: invalid k = %d for %d sites", opts.K, n)
	}
	k := opts.K

	util := make([]float64, cs.M)
	// Seed the incumbent with the greedy solution: a strong lower bound
	// prunes most of the tree immediately.
	greedy, err := IncGreedy(cs, GreedyOptions{K: k})
	if err != nil {
		return Result{}, err
	}
	best := append([]SiteID(nil), greedy.Selected...)
	bestU := greedy.Utility

	marg := func(s int) float64 {
		var m float64
		trajs, scores := cs.TC(int32(s))
		for i, t := range trajs {
			if g := scores[i] - util[t]; g > 0 {
				m += g
			}
		}
		return m
	}

	// Static site order by weight descending: strong candidates first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cs.Weights[order[a]] > cs.Weights[order[b]] })

	var (
		nodes    int64
		capped   bool
		current  []SiteID
		currentU float64
		gains    []float64 // scratch for the bound
	)

	// apply selects site s, returning an undo log of utility changes.
	type undo struct {
		traj int32
		old  float64
	}
	apply := func(s int) (float64, []undo) {
		var gained float64
		var log []undo
		trajs, scores := cs.TC(int32(s))
		for i, t := range trajs {
			if scores[i] > util[t] {
				log = append(log, undo{traj: t, old: util[t]})
				gained += scores[i] - util[t]
				util[t] = scores[i]
			}
		}
		return gained, log
	}
	revert := func(log []undo) {
		for i := len(log) - 1; i >= 0; i-- {
			util[log[i].traj] = log[i].old
		}
	}

	var dfs func(pos int)
	dfs = func(pos int) {
		nodes++
		if opts.MaxNodes > 0 && nodes > opts.MaxNodes {
			capped = true
			return
		}
		if len(current) == k {
			if currentU > bestU {
				bestU = currentU
				best = append(best[:0], current...)
			}
			return
		}
		remainingSlots := k - len(current)
		if n-pos < remainingSlots {
			return // not enough sites left
		}
		// Upper bound: current utility plus the top remaining marginals.
		gains = gains[:0]
		for i := pos; i < n; i++ {
			gains = append(gains, marg(order[i]))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(gains)))
		bound := currentU
		for i := 0; i < remainingSlots && i < len(gains); i++ {
			bound += gains[i]
		}
		if bound <= bestU+1e-12 {
			return
		}
		// Branch: include order[pos], then exclude it.
		s := order[pos]
		gained, log := apply(s)
		current = append(current, SiteID(s))
		currentU += gained
		if currentU > bestU { // partial selections are feasible too (|Q| <= k)
			bestU = currentU
			best = append(best[:0], current...)
		}
		dfs(pos + 1)
		current = current[:len(current)-1]
		currentU -= gained
		revert(log)
		if capped {
			return
		}
		dfs(pos + 1)
	}
	dfs(0)

	u, covered := EvaluateSelection(cs, best)
	return Result{
		Selected: append([]SiteID(nil), best...),
		Utility:  u,
		Covered:  covered,
		Exact:    !capped,
	}, nil
}
