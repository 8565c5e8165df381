package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// QueryOptions carries the online TOPS query parameters.
type QueryOptions struct {
	// K is the number of sites to report.
	K int
	// Pref is the preference function ψ with its threshold τ.
	Pref tops.Preference
	// UseFM answers the query with FM-NETCLUS (binary ψ only).
	UseFM bool
	// F is the FM sketch count (default 30).
	F int
	// Seed derives FM hash families.
	Seed uint64
	// Greedy forwards extra options (existing services, TOPS4 target
	// coverage) to the underlying IncGreedy. K and
	// TargetCoverage inside are overridden by this struct's fields.
	Greedy tops.GreedyOptions
}

// QueryResult is the NETCLUS answer to a TOPS query.
type QueryResult struct {
	// Sites lists the selected sites as road-network nodes.
	Sites []roadnet.NodeID
	// SiteIDs lists the same sites as dense ids of the TOPS instance,
	// index-aligned with Sites: SiteIDs[i] identifies Sites[i], with
	// tops.InvalidSiteID marking a node whose site registration vanished
	// between cover construction and answer assembly (possible only when
	// the caller interleaves queries with site deletions).
	SiteIDs []tops.SiteID
	// EstimatedUtility is U(Q) under the clustered-space distance
	// estimates d̂r. Because d̂r >= dr (Eq. 9 over-estimates), this lower-
	// bounds the true utility for non-increasing ψ.
	EstimatedUtility float64
	// EstimatedCovered counts trajectories covered under d̂r.
	EstimatedCovered int
	// InstanceUsed is the ladder position p the query ran on.
	InstanceUsed int
	// NumRepresentatives is |Ŝ|, the candidate pool size (η_p bound).
	NumRepresentatives int
	// CoverHit reports whether the covering structure came from the
	// memoized cover cache without sweeping a representative row (false on
	// a fresh fill, on a patched cover, on uncached engines, and on paths
	// that bypass the cache); CoverRowsSwept is the number of rows the
	// query's cover lookup swept. Set by the engine layer; the serving
	// tier's slow-query log and latency histograms key on them.
	CoverHit       bool
	CoverRowsSwept int

	// scratch, when non-nil, ties this result to the pooled QueryScratch
	// whose buffers back Sites/SiteIDs (the result struct itself lives
	// inside the scratch). Release returns it; a nil scratch makes Release
	// a no-op, so results from unpooled paths are always safe to Release.
	scratch *QueryScratch
}

// QueryScratch bundles every buffer the greedy phase of a query needs —
// the tops greedy scratch plus a reusable QueryResult with its Sites and
// SiteIDs slices — so that a cached query (memoized cover, pooled scratch)
// runs allocation-free. Scratches recycle through a package-level pool:
// QueryOnCoverPooledCtx draws one and attaches it to the result it returns;
// QueryResult.Release puts it back.
type QueryScratch struct {
	greedy tops.GreedyScratch
	res    QueryResult
}

var queryScratchPool = sync.Pool{New: func() any { return new(QueryScratch) }}

// Release recycles the result's backing scratch into the query-scratch
// pool. It is a no-op for results that did not come from the pooled path.
// After Release the result and its slices must not be touched — not even
// by a second Release: the result struct itself is pooled memory, so any
// later access races with the next query that draws the scratch. Results
// that are never released are simply collected by the GC — Release is an
// optimization handle, not an obligation.
func (r *QueryResult) Release() {
	if qs := r.scratch; qs != nil {
		r.scratch = nil
		queryScratchPool.Put(qs)
	}
}

// AcquireQueryResult returns an empty pooled QueryResult with its buffers
// reset, for layers that assemble answers themselves (internal/shard's
// Answer). Pair with Release like any pooled result.
func AcquireQueryResult() *QueryResult {
	qs := queryScratchPool.Get().(*QueryScratch)
	out := &qs.res
	*out = QueryResult{Sites: out.Sites[:0], SiteIDs: out.SiteIDs[:0], scratch: qs}
	return out
}

// RepCover builds the TOPS-Cluster covering structure over the cluster
// representatives of instance p (§5.1): for every representative r_i the
// estimated covered trajectories T̂C(r_i) with scores ψ(d̂r), where
//
//	d̂r(T_j, r_i) = dr(T_j, c_j) + dr(c_j, c_i) + dr(c_i, r_i)   (Eq. 9)
//
// and only the cluster itself (c_j = c_i, middle term 0) and its CL
// neighbors need scanning. A trajectory reachable via several neighbor
// clusters keeps its smallest estimate.
//
// The returned slice maps dense representative index -> cluster id.
//
// The computation is split in two (cover.go): a CoverPlan holding the
// representative list and per-representative scan order, built once per
// instance and reused across preference functions, and a parallel fill that
// shards representatives across workers with dense scratch arrays and emits
// each row in ascending trajectory id. RepCover always runs the fill;
// CoverFor memoizes the result.
func (idx *Index) RepCover(p int, pref tops.Preference) (*tops.CoverSets, []ClusterID) {
	cs, reps, _ := idx.RepCoverCtx(context.Background(), p, pref)
	return cs, reps
}

// RepCoverCtx is RepCover under a request context: the representative sweep
// checks ctx between representatives and aborts with its error on
// cancellation, which is how per-request deadlines reach the O(η_p · TL)
// part of a query.
func (idx *Index) RepCoverCtx(ctx context.Context, p int, pref tops.Preference) (*tops.CoverSets, []ClusterID, error) {
	pl := idx.coverPlan(p)
	cs, _, err := idx.fillCover(ctx, p, pl, pref, nil)
	if err != nil {
		return nil, nil, err
	}
	return cs, pl.Reps, nil
}

// Query answers a TOPS query online (§5): select the ladder instance for τ,
// build the representative covering sets, and run INC-GREEDY (or the FM
// variant) over the representatives.
//
// Extreme thresholds follow §4.4: τ < τmin degrades gracefully to the
// finest instance (whose clusters approach single sites), and τ >= τmax
// clamps to the coarsest instance. A derived τmax is capped well below the
// network's round-trip diameter (estimateTauRange), so a τ above it is
// answered over the top kept rung's representatives, not over a rung where
// every site covers every trajectory.
func (idx *Index) Query(opts QueryOptions) (*QueryResult, error) {
	return idx.QueryCtx(context.Background(), opts)
}

// QueryCtx is Query under a request context: cancellation checkpoints sit
// before the cover sweep, inside it (every representative), and before the
// greedy phase, so a lapsed deadline aborts the query at the next
// checkpoint with the context's error.
func (idx *Index) QueryCtx(ctx context.Context, opts QueryOptions) (*QueryResult, error) {
	if err := opts.Pref.Validate(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: k = %d must be positive", opts.K)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := idx.InstanceFor(opts.Pref.Tau)
	cs, repClusters, err := idx.RepCoverCtx(ctx, p, opts.Pref)
	if err != nil {
		return nil, err
	}
	return idx.QueryOnCoverCtx(ctx, p, cs, repClusters, opts)
}

// QueryOnCoverCtx runs the greedy phase of a query over an already-built
// covering structure of instance p: the second half of Query, exposed so
// that callers managing cover reuse themselves (internal/engine's batch
// path, benchmarks) can time and share the two phases independently. cs is
// not mutated. The context is checked once, before the greedy; the greedy
// itself runs to completion once started — it is the cheap phase and
// produces no partial answers.
func (idx *Index) QueryOnCoverCtx(ctx context.Context, p int, cs *tops.CoverSets, repClusters []ClusterID, opts QueryOptions) (*QueryResult, error) {
	return idx.queryOnCover(ctx, p, cs, repClusters, opts, nil)
}

// QueryOnCoverPooledCtx is QueryOnCoverCtx served entirely from a pooled
// QueryScratch: with a memoized cover the whole greedy phase touches only
// preallocated memory, and the returned result must be Released when the
// caller is done with it (or abandoned to the GC). Answers are bit-identical
// to the unpooled path — the scratch changes where buffers live, not one
// float operation.
func (idx *Index) QueryOnCoverPooledCtx(ctx context.Context, p int, cs *tops.CoverSets, repClusters []ClusterID, opts QueryOptions) (*QueryResult, error) {
	qs := queryScratchPool.Get().(*QueryScratch)
	out, err := idx.queryOnCover(ctx, p, cs, repClusters, opts, qs)
	if err != nil {
		queryScratchPool.Put(qs)
		return nil, err
	}
	return out, nil
}

func (idx *Index) queryOnCover(ctx context.Context, p int, cs *tops.CoverSets, repClusters []ClusterID, opts QueryOptions, qs *QueryScratch) (*QueryResult, error) {
	if len(repClusters) == 0 {
		return nil, fmt.Errorf("core: instance %d has no cluster representatives (no candidate sites?)", p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := opts.K
	if k > len(repClusters) {
		k = len(repClusters)
	}

	var res tops.Result
	var err error
	if opts.UseFM {
		res, err = tops.FMGreedy(cs, tops.FMGreedyOptions{K: k, F: opts.F, Seed: opts.Seed})
	} else {
		gopts := opts.Greedy
		gopts.K = k
		if gopts.TargetCoverage > 0 {
			gopts.K = len(repClusters)
		}
		var g *tops.GreedyScratch
		if qs != nil {
			g = &qs.greedy
		}
		res, err = tops.IncGreedyScratch(cs, gopts, g)
	}
	if err != nil {
		return nil, err
	}
	var out *QueryResult
	if qs != nil {
		out = &qs.res
		*out = QueryResult{Sites: out.Sites[:0], SiteIDs: out.SiteIDs[:0], scratch: qs}
	} else {
		out = &QueryResult{}
	}
	out.EstimatedUtility = res.Utility
	out.EstimatedCovered = res.Covered
	out.InstanceUsed = p
	out.NumRepresentatives = len(repClusters)
	ins := idx.Instances[p]
	for _, ri := range res.Selected {
		node := ins.Clusters[repClusters[ri]].Rep
		out.Sites = append(out.Sites, node)
		// Keep SiteIDs index-aligned with Sites: a representative whose
		// site registration disappeared maps to the sentinel instead of
		// being silently skipped.
		sid := tops.InvalidSiteID
		if id := idx.siteID[node]; id >= 0 {
			sid = tops.SiteID(id)
		}
		out.SiteIDs = append(out.SiteIDs, sid)
	}
	return out, nil
}

// EstimatedDetour exposes d̂r(T, r) for the representative of the cluster
// of node rep at instance p; used by tests and the quality analysis. It
// returns +Inf when the trajectory does not pass through the cluster or
// its neighborhood.
func (idx *Index) EstimatedDetour(p int, tid trajectory.ID, ci ClusterID) float64 {
	ins := idx.Instances[p]
	cl := &ins.Clusters[ci]
	if cl.Rep == roadnet.InvalidNode {
		return math.Inf(1)
	}
	best := math.Inf(1)
	check := func(tl []TrajEntry, centerDr float64) {
		// Association matches fillCover's `te.Dr + (centerDr + repDr)`
		// exactly, so the differential oracle can compare estimates
		// bit-for-bit instead of within a float tolerance.
		base := centerDr + cl.RepDr
		for _, te := range tl {
			if te.Traj == tid {
				if d := te.Dr + base; d < best {
					best = d
				}
			}
		}
	}
	check(cl.TL, 0)
	for _, nb := range cl.CL {
		check(ins.Clusters[nb.Cluster].TL, nb.Dr)
	}
	return best
}

// EvaluateExact measures the true utility of a NETCLUS answer against a
// full distance index — what the paper reports when comparing NETCLUS
// quality with INC-GREEDY. Deleted trajectories are excluded.
func (idx *Index) EvaluateExact(distIdx *tops.DistanceIndex, pref tops.Preference, sites []roadnet.NodeID) (float64, int) {
	var total float64
	covered := 0
	for tid := 0; tid < idx.inst.M() && tid < distIdx.NumTrajs(); tid++ {
		if tid < len(idx.alive) && !idx.alive[tid] {
			continue
		}
		best := 0.0
		for _, node := range sites {
			sid := idx.siteID[node]
			if sid < 0 {
				continue
			}
			if score := pref.Score(distIdx.Detour(trajectory.ID(tid), tops.SiteID(sid))); score > best {
				best = score
			}
		}
		total += best
		if best > 0 {
			covered++
		}
	}
	return total, covered
}
