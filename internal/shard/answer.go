package shard

import (
	"context"
	"fmt"
	"sync"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// Cover is one owning shard's slice of a query: its masked cover and the
// clusters the cover's local dense representative indices stand for, as
// engine.Engine.CoverMasked returns them (in process) or ReadCover decodes
// them (across processes).
type Cover struct {
	Shard int
	CS    *tops.CoverSets
	Reps  []core.ClusterID
}

// answerScratch is one query's greedy state: the greedy's buffers, the
// parts over the owning shards' covers, and their local→global maps.
type answerScratch struct {
	greedy tops.GreedyScratch
	parts  []tops.Part
	global []int32
}

var answerPool = sync.Pool{New: func() any { return new(answerScratch) }}

// Answer is a query's answer phase, the one the routing core runs: given
// the ownership of instance p, the owning shards' masked covers (ascending
// shard order) and the global site-id mirror, it answers opts. The greedy
// is tops.IncGreedyParts, one part per owning cover, so its answer carries
// the bits the single-process engine's would. FM sketches and lazy
// evaluation are other algorithms; they run on the merged cover. The
// context is checked once, before the greedy, as core checks it. The
// result is pooled; the caller may Release it.
func Answer(ctx context.Context, p int, own *Ownership, covers []Cover, sites *SiteMirror, opts core.QueryOptions) (*core.QueryResult, error) {
	n := len(own.Winners)
	if n == 0 {
		return nil, fmt.Errorf("shard: instance %d has no cluster representatives (no candidate sites?)", p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gopts := opts.Greedy
	gopts.K = min(opts.K, n)
	a := answerPool.Get().(*answerScratch)
	defer a.release()
	parts := a.partsOf(own, covers)
	var res tops.Result
	var err error
	switch {
	case opts.UseFM:
		res, err = tops.FMGreedy(merged(parts, n), tops.FMGreedyOptions{K: gopts.K, F: opts.F, Seed: opts.Seed})
	case gopts.Lazy:
		res, err = tops.IncGreedy(merged(parts, n), gopts)
	default:
		res, err = tops.IncGreedyParts(parts, n, gopts, &a.greedy)
	}
	if err != nil {
		return nil, err
	}

	out := core.AcquireQueryResult()
	out.EstimatedUtility = res.Utility
	out.EstimatedCovered = res.Covered
	out.InstanceUsed = p
	out.NumRepresentatives = n
	for _, gi := range res.Selected {
		node := own.Winners[gi].Node
		out.Sites = append(out.Sites, node)
		out.SiteIDs = append(out.SiteIDs, sites.ID(node))
	}
	return out, nil
}

// partsOf is one tops.Part per cover, its Global the cover's local→global
// map.
func (a *answerScratch) partsOf(own *Ownership, covers []Cover) []tops.Part {
	a.parts, a.global = a.parts[:0], a.global[:0]
	for _, c := range covers {
		start := len(a.global)
		a.global = localToGlobal(a.global, c.Reps, own.Masks[c.Shard], own.MasksGI[c.Shard])
		a.parts = append(a.parts, tops.Part{CS: c.CS, Global: a.global[start:]})
	}
	return a.parts
}

// release detaches the scratch from the query's covers and recycles it.
func (a *answerScratch) release() {
	clear(a.parts)
	answerPool.Put(a)
}

// localToGlobal appends to dst the local→global index map of a masked
// cover: its returned clusters merged against the mask they were asked for
// (both ascending). A returned cluster the mask does not name (possible
// only under concurrent mutation) is not a winner: -1.
func localToGlobal(dst []int32, reps, mask []core.ClusterID, maskGI []int32) []int32 {
	mi := 0
	for _, ci := range reps {
		for mi < len(mask) && mask[mi] < ci {
			mi++
		}
		gi := int32(-1)
		if mi < len(mask) && mask[mi] == ci {
			gi = maskGI[mi]
			mi++
		}
		dst = append(dst, gi)
	}
	return dst
}

// merged stitches the parts into one CoverSets over the n global
// representatives. TC slices are borrowed until Finalize copies them (the
// shard covers are read-only for the query's lifetime); weights recompute
// through the same left-to-right summation the single-shard fill performs,
// so they carry identical bits.
func merged(parts []tops.Part, n int) *tops.CoverSets {
	m := 0
	for _, p := range parts {
		m = max(m, p.CS.M)
	}
	cs := tops.NewCoverSets(n, m)
	for _, p := range parts {
		for li, gi := range p.Global {
			if gi >= 0 {
				trajs, scores := p.CS.TC(int32(li))
				cs.SetTCArrays(gi, trajs, scores)
			}
		}
	}
	cs.Finalize()
	return cs
}
