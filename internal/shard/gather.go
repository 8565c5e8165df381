package shard

import (
	"context"
	"fmt"
	"sync"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// The distributed greedy's coordinator: the paper's Algorithm 1
// (tops.plainGreedy) restructured as synchronized rounds over per-shard
// sessions, without ever materializing the merged covering structure.
//
// State split:
//
//   - the coordinator owns the per-trajectory utility vector U and the
//     covered count (it holds the winning representative's TC list each
//     round);
//   - each session owns the marginals of its shard's representatives and
//     the local SC lists needed to maintain them.
//
// One round = each session absorbs the previous winner's utility deltas
// into its marginals and reports its local argmax (under the GLOBAL dense
// index tie-break); the coordinator reduces the candidates with the same
// comparator, applies the winner and broadcasts its deltas. Every float64
// operation — the initial marginal sums in TC order, the
// `marg -= oldGain - newGain` updates in the winner's TC order, the
// utility accumulation — replays tops.plainGreedy's op for op, so
// Selected/Utility/Covered carry identical bits. The routing core reaches it
// through Answer, over the covers its members return in process or ship
// across one.

// Session is the coordinator's handle on one shard's side of a query.
type Session interface {
	// Step reports the previous round's winner (its global dense index and
	// the utility deltas it caused; -1 and none on the first round) and
	// returns the shard's next candidate. The reply must stay valid until
	// the session's next Step.
	Step(winnerGI int32, deltas []UtilDelta) RoundReply
	// End releases the session. The coordinator calls it exactly once.
	End()
}

// Gather is the coordinator's reusable scratch; the zero value is ready.
type Gather struct {
	util    []float64
	deltas  []UtilDelta
	sel     []tops.SiteID
	replies []RoundReply
}

// Run selects up to k representatives over the open sessions ss and ends
// every session before returning, whatever the outcome; the context is
// checked before each round. Selected holds global dense representative
// indices and aliases g (valid until g's next Run). The reduce is a strict
// total order over distinct global indices, so the answer does not depend
// on the order of ss.
func (g *Gather) Run(ctx context.Context, k int, ss []Session) (tops.Result, error) {
	defer func() {
		for _, s := range ss {
			s.End()
		}
	}()
	g.replies = append(g.replies[:0], make([]RoundReply, len(ss))...)
	g.deltas = g.deltas[:0]
	res := tops.Result{Selected: g.sel[:0]}
	winnerGI := int32(-1)
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return tops.Result{}, err
		}
		for i, s := range ss {
			g.replies[i] = s.Step(winnerGI, g.deltas)
		}
		if round == 0 {
			// The utility vector spans the widest trajectory id any shard
			// covers.
			m := 0
			for _, r := range g.replies {
				m = max(m, r.M)
			}
			g.util = append(g.util[:0], make([]float64, m)...)
		}
		var win *Candidate
		for _, r := range g.replies {
			if c := r.Cand; c != nil && (win == nil || tops.GreaterSite(c.Marg, c.Weight, int(c.GI), win.Marg, win.Weight, int(win.GI))) {
				win = c
			}
		}
		if win == nil {
			break // every representative selected
		}
		res.Selected = append(res.Selected, tops.SiteID(win.GI))
		res.Utility += win.Marg
		var nc int
		g.deltas, nc = ApplyWinner(g.util, win.Trajs, win.Scores, g.deltas[:0])
		res.Covered += nc
		if len(res.Selected) >= k {
			break // nobody needs the last winner's deltas
		}
		winnerGI = win.GI
	}
	g.sel = res.Selected
	return res, nil
}

// Cover is one owning shard's slice of a query: its masked cover and the
// clusters the cover's local dense representative indices stand for, as
// engine.Engine.CoverMasked returns them (in process) or ReadCover decodes
// them (across processes).
type Cover struct {
	Shard int
	CS    *tops.CoverSets
	Reps  []core.ClusterID
}

var gatherPool = sync.Pool{New: func() any { return new(Gather) }}

// Answer is a query's gather phase, the one the routing core runs: given the
// ownership of instance p, the owning shards' masked covers (ascending
// shard order) and the global site-id mirror, it answers opts. The common
// path is the distributed greedy: the coordinator over one session per
// cover, rounds inline. Query modes with extra greedy state (FM sketches,
// lazy evaluation, existing services, target coverage) run on the merged
// cover instead. pooled recycles the coordinator, the sessions and the
// result (the caller Releases it).
func Answer(ctx context.Context, p int, own *Ownership, covers []Cover, sites *SiteMirror, opts core.QueryOptions, pooled bool) (*core.QueryResult, error) {
	n := len(own.Winners)
	if n == 0 {
		return nil, fmt.Errorf("shard: instance %d has no cluster representatives (no candidate sites?)", p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := min(opts.K, n)
	var res tops.Result
	var err error
	var g *Gather
	switch {
	case opts.UseFM:
		res, err = tops.FMGreedy(merged(own, covers), tops.FMGreedyOptions{K: k, F: opts.F, Seed: opts.Seed})
	case opts.Greedy.Lazy || len(opts.Greedy.InitialSites) > 0 || opts.Greedy.TargetCoverage > 0:
		gopts := opts.Greedy
		gopts.K = k
		if gopts.TargetCoverage > 0 {
			gopts.K = n
		}
		res, err = tops.IncGreedy(merged(own, covers), gopts)
	default:
		if pooled {
			g = gatherPool.Get().(*Gather)
		} else {
			g = new(Gather)
		}
		ss := make([]Session, len(covers))
		for i, c := range covers {
			ss[i] = openSession(c.CS, c.Reps, own.Masks[c.Shard], own.MasksGI[c.Shard], pooled)
		}
		res, err = g.Run(ctx, k, ss)
	}
	if err != nil {
		return nil, err
	}

	var out *core.QueryResult
	if pooled {
		out = core.AcquireQueryResult()
	} else {
		out = &core.QueryResult{}
	}
	out.EstimatedUtility = res.Utility
	out.EstimatedCovered = res.Covered
	out.InstanceUsed = p
	out.NumRepresentatives = n
	for _, gi := range res.Selected {
		node := own.Winners[gi].Node
		out.Sites = append(out.Sites, node)
		out.SiteIDs = append(out.SiteIDs, sites.ID(node))
	}
	if g != nil && pooled {
		// res.Selected (aliasing g) is fully consumed above.
		gatherPool.Put(g)
	}
	return out, nil
}

// merged stitches the per-shard covers into one global CoverSets in the
// single-shard dense representative space. TC slices are borrowed until
// Finalize copies them (the shard covers are read-only for the query's
// lifetime); weights recompute through the same left-to-right summation
// the single-shard fill performs, so they carry identical bits.
func merged(own *Ownership, covers []Cover) *tops.CoverSets {
	m := 0
	for _, c := range covers {
		m = max(m, c.CS.M)
	}
	cs := tops.NewCoverSets(len(own.Winners), m)
	var g2l []int32
	for _, c := range covers {
		g2l = localToGlobal(g2l, c.Reps, own.Masks[c.Shard], own.MasksGI[c.Shard])
		for li, gi := range g2l {
			if gi >= 0 {
				trajs, scores := c.CS.TC(int32(li))
				cs.SetTCArrays(gi, trajs, scores)
			}
		}
	}
	cs.Finalize()
	return cs
}
