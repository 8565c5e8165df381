package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// This file splits the §5.1 RepCover computation into two halves with very
// different lifetimes:
//
//   - CoverPlan: which clusters field a representative, and per
//     representative dr(c_i, r_i) — the only thing about the site set Eq. 9
//     reads. It depends on the clustering and the site set alone, so it is
//     computed once per instance and reused across every preference function
//     until a site mutation moves a representative of that instance.
//   - the fill: evaluating Eq. 9 row by row (one row per representative)
//     for a concrete ψ. The fill shards rows across workers, each with a
//     dense epoch-stamped scratch array, and the result is memoized per
//     (instance, ψ fingerprint) together with the plan rows it was computed
//     from.
//
// A memoized cover is revalidated against those rows, not dropped, when
// sites change. A site mutation bumps Instance.repGen only where some
// cluster's representative presence or RepDr actually moved, and a lookup
// (coverFor) serves in three steps under one singleflight per key:
//
//  1. generation equal: hit, O(1), no allocation;
//  2. generation moved: compare the entry's (cluster, RepDr) rows with the
//     current plan by value; equal (a delete-then-re-add, any update that
//     nets out) adopts the generation and is a hit;
//  3. rows differ: build a new CoverSets copy-on-write, borrowing every row
//     whose (cluster, RepDr) is unchanged from the old flat arrays and
//     sweeping only changed or inserted rows (fillCover — a cold fill is the
//     same function with nothing to borrow from).
//
// A row is a pure function of (cluster, RepDr, ψ, trajectory state), and
// Finalize derives everything else from the rows, so a patched cover is
// byte-equal to a fresh one (TestCoverRevalidationDifferential).
//
// Trajectory mutations still drop every memoized cover. That is measured,
// not assumed: a TC row lists trajectories in first-touch order of the sweep
// (own cluster, then CL neighbours), not id order, so appending a new
// trajectory to an old row is not bit-exact and a touched row must be swept
// again whole; and on bangalore 0.01 a 64-trace ingest window touches a
// cluster in the scan set of 88–100 % of the rows of the four rungs the
// benchmark mix queries, landing an entry within τ in 62–100 % of them (one
// trajectory: 8–60 % and 2–39 %), so row-granular refill would borrow next
// to nothing there and still pay the Finalize.
//
// The Index alone does not serialize queries against mutations; the
// concurrency protocol (readers query, writers mutate) is owned by
// internal/engine.

// CoverPlan is the reusable positional half of the covering-structure
// computation for one instance. The per-representative scan order (own
// cluster first, then CL neighbors with their center distances) is read
// straight off the immutable CL lists at fill time — CL is built once per
// instance and no §6 mutation touches it, so the plan only needs the
// representative list and its dr snapshot. A plan is immutable once built.
type CoverPlan struct {
	// Reps maps dense representative index -> cluster id, ascending.
	Reps []ClusterID
	// repDr[ri] is dr(c_i, r_i) for Reps[ri], snapshotted at plan time.
	repDr []float64
	// gen is the Instance.repGen the rows were read at, or last found
	// unchanged at (coverFor, step 2).
	gen uint64
}

// sameRows reports whether two plans list the same (cluster, RepDr) rows —
// everything a fill reads from a plan.
func (pl *CoverPlan) sameRows(o *CoverPlan) bool {
	return slices.Equal(pl.Reps, o.Reps) && slices.Equal(pl.repDr, o.repDr)
}

// coverKey identifies one cache slot: the ladder instance, a fingerprint of
// the preference function, and whether it holds the full cover or the masked
// one the sharded engine asks for. A shard serves one mask per instance at a
// time (its current ownership), so the mask is validated, not keyed.
type coverKey struct {
	p      int
	fp     uint64
	masked bool
}

// coverEntry is one cache slot. cur is the cover last published for the key;
// fill is the singleflight: its holder brings cur up to date while
// concurrent look-alike callers queue behind it and then find cur current.
// A holder whose context is canceled publishes nothing, so cur keeps the
// previous cover and the next caller in line patches from it under its own
// context — one aggressive-deadline client cannot fail, or cost a cold fill
// to, well-behaved concurrent requests for the same cover.
type coverEntry struct {
	fill sync.Mutex
	cur  atomic.Pointer[cachedCover]
}

// cachedCover is an immutable memoized cover that knows its inputs: the
// plan rows it was filled from (and, in plan.gen, the instance generation
// they were last found current at) and the mask it was requested under (a
// private copy — the caller's is spliced in place on ownership moves).
type cachedCover struct {
	cs   *tops.CoverSets
	plan *CoverPlan
	keep []ClusterID
}

// current is step 1 of coverFor: no representative row of the instance moved
// since the cover was validated, and it was filled for this mask.
func (c *cachedCover) current(gen uint64, keep []ClusterID) bool {
	return c != nil && c.plan.gen == gen && slices.Equal(c.keep, keep)
}

// CoverCacheStats reports cover-cache effectiveness counters. A hit is a
// lookup that swept no representative row (steps 1 and 2 of coverFor;
// Revalidated counts the step-2 share), a miss one that swept at least one
// (a patch or a cold fill); RowsSwept totals the rows.
type CoverCacheStats struct {
	Hits        uint64
	Misses      uint64
	Revalidated uint64
	RowsSwept   uint64
	Entries     int
}

// PrefFingerprint derives a cache key from a preference function (also used
// by internal/engine to group batch queries that can share one cover). Tau and
// Name are hashed directly; a non-nil F is additionally sampled at 64 points
// over its effective span so that functions sharing a name but differing in
// shape (e.g. different ExpDecay λ) do not collide.
//
// The sampling is only sound at the sample points: two custom functions that
// share Name and Tau and agree on every multiple of span/64 but differ in
// between would alias to one cache entry. Give custom preference functions
// distinct Names (as every constructor in tops does) to rule that out.
//
// The hash is FNV-1a computed inline (same byte stream, and therefore the
// same values, as the former hash/fnv implementation) so that the cached
// query path pays no hasher allocation per lookup.
func PrefFingerprint(pref tops.Preference) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(pref.Name); i++ {
		h = fnvByte(h, pref.Name[i])
	}
	h = fnvU64(h, math.Float64bits(pref.Tau))
	if pref.F != nil {
		span := pref.Tau
		if math.IsInf(span, 1) || span <= 0 {
			span = 1e4
		}
		const samples = 64
		for i := 0; i <= samples; i++ {
			h = fnvU64(h, math.Float64bits(pref.F(span*float64(i)/samples)))
		}
	}
	return h
}

// Inline FNV-1a: the cover-cache key computations sit on the cached query
// hot path, where a hash.Hash64 costs an allocation per call.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvU64 absorbs v little-endian byte by byte, matching hash/fnv over the
// same 8-byte encoding.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = fnvByte(h, byte(v>>i))
	}
	return h
}

// coverPlan returns instance p's full plan, rebuilding it when a site
// mutation has moved one of the instance's representatives since it was
// built.
func (idx *Index) coverPlan(p int) *CoverPlan {
	gen := idx.Instances[p].repGen
	idx.coverMu.Lock()
	if idx.coverPlans == nil {
		idx.coverPlans = make([]*CoverPlan, len(idx.Instances))
	}
	pl := idx.coverPlans[p]
	idx.coverMu.Unlock()
	if pl != nil && pl.gen == gen {
		return pl
	}

	pl = idx.buildCoverPlan(p)

	idx.coverMu.Lock()
	idx.coverPlans[p] = pl
	idx.coverMu.Unlock()
	return pl
}

func (idx *Index) buildCoverPlan(p int) *CoverPlan {
	ins := idx.Instances[p]
	pl := &CoverPlan{gen: ins.repGen}
	for ci := range ins.Clusters {
		appendPlanEntry(pl, ins, ClusterID(ci))
	}
	return pl
}

// appendPlanEntry adds cluster ci's representative (if any) to the plan.
// Shared by the full plan builder and the masked plans the sharding layer
// requests.
func appendPlanEntry(pl *CoverPlan, ins *Instance, ci ClusterID) {
	cl := &ins.Clusters[ci]
	if cl.Rep == roadnet.InvalidNode {
		return
	}
	pl.Reps = append(pl.Reps, ci)
	pl.repDr = append(pl.repDr, cl.RepDr)
}

// fillScratch is one worker's dense scratch state: dist[t] is valid iff
// gen[t] == cur, so advancing cur resets the whole array in O(1) per
// representative instead of clearing a map. It also carries the worker's
// result arena: the per-representative TC lists accumulate into two flat
// parallel slices (struct-of-arrays, matching CoverSets' final layout) with
// (start, end) segments recorded per representative, so a whole fill costs
// the worker zero allocations once the arena has grown to steady state.
//
// Scratches recycle through a package pool. The arena is borrowed by the
// CoverSets staging until Finalize copies it into the flat CSR arrays, so
// fillCover only returns scratches to the pool after finalizing.
type fillScratch struct {
	dist    []float64
	gen     []uint32
	cur     uint32
	touched []trajectory.ID

	tcTraj  []int32
	tcScore []float64
	segs    []fillSeg
}

// fillSeg records that representative ri's TC list is the arena slice
// [start, end).
type fillSeg struct {
	ri         int32
	start, end int32
}

var fillScratchPool = sync.Pool{New: func() any {
	return &fillScratch{touched: make([]trajectory.ID, 0, 256)}
}}

// prepare sizes the dense arrays for an m-trajectory universe and empties
// the arena. The generation counter survives reuse: a larger universe
// forces fresh (zeroed) arrays, a smaller one just narrows the index range.
func (s *fillScratch) prepare(m int) {
	if len(s.dist) < m {
		s.dist = make([]float64, m)
		s.gen = make([]uint32, m)
		s.cur = 0
	}
	s.touched = s.touched[:0]
	s.tcTraj = s.tcTraj[:0]
	s.tcScore = s.tcScore[:0]
	s.segs = s.segs[:0]
}

func (s *fillScratch) reset() {
	s.cur++
	if s.cur == 0 { // generation counter wrapped: hard-clear once per 2^32
		for i := range s.gen {
			s.gen[i] = 0
		}
		s.cur = 1
	}
	s.touched = s.touched[:0]
}

// fillCover builds the covering structure of plan pl under the given
// preference: one TC row per representative, sharded across NumCPU workers.
// A row is a pure function of (cluster, RepDr, ψ, trajectory state), so when
// prev — a cover of the same key filled against the same trajectory state —
// has a row with the same (cluster, RepDr), that row is borrowed from prev's
// flat arrays instead of swept; a cold fill is the case prev == nil. Workers
// write disjoint TC slots (tops.CoverSets.SetTCArrays); the CSR arrays and
// the trajectory-side SC lists are derived by the single Finalize pass
// afterwards, which copies borrowed rows too, so prev is never aliased by
// the result. The second return counts the rows swept.
//
// The per-representative sweep is the expensive part of a query, so it is
// also where request deadlines bite: every worker checks ctx between
// representatives and the whole fill aborts with the context error once any
// worker observes cancellation. A canceled fill is never returned (nor
// memoized), so partially filled covers cannot leak into answers.
func (idx *Index) fillCover(ctx context.Context, p int, pl *CoverPlan, pref tops.Preference, prev *cachedCover) (*tops.CoverSets, int, error) {
	ins := idx.Instances[p]
	m := idx.trajs.Len()
	cs := tops.NewCoverSets(len(pl.Reps), m)
	nReps := len(pl.Reps)
	if nReps == 0 {
		return cs, 0, nil
	}
	workers := runtime.NumCPU()
	if workers > nReps {
		workers = nReps
	}
	tau := pref.Tau
	var next atomic.Int64
	var canceled atomic.Bool
	var wg sync.WaitGroup
	scratches := make([]*fillScratch, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := fillScratchPool.Get().(*fillScratch)
			sc.prepare(m)
			scratches[w] = sc
			for {
				ri := int(next.Add(1)) - 1
				if ri >= nReps {
					break
				}
				if canceled.Load() {
					break
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					break
				}
				repDr := pl.repDr[ri]
				if prev != nil {
					if pri, ok := slices.BinarySearch(prev.plan.Reps, pl.Reps[ri]); ok && prev.plan.repDr[pri] == repDr {
						trajs, scores := prev.cs.TC(int32(pri))
						cs.SetTCArrays(int32(ri), trajs, scores)
						continue
					}
				}
				sc.reset()
				cl := &ins.Clusters[pl.Reps[ri]]
				// Scan order matches the former materialized scan lists —
				// own cluster (centerDr 0) first, then CL neighbors — with
				// the identical float association, so fills are bit-stable
				// across this representation change.
				sweep := func(tl []TrajEntry, base float64) {
					for _, te := range tl {
						if !idx.alive[te.Traj] {
							continue
						}
						dHat := te.Dr + base
						if dHat > tau {
							continue
						}
						if sc.gen[te.Traj] != sc.cur {
							sc.gen[te.Traj] = sc.cur
							sc.dist[te.Traj] = dHat
							sc.touched = append(sc.touched, te.Traj)
						} else if dHat < sc.dist[te.Traj] {
							sc.dist[te.Traj] = dHat
						}
					}
				}
				sweep(cl.TL, 0+repDr)
				for _, nb := range cl.CL {
					sweep(ins.Clusters[nb.Cluster].TL, nb.Dr+repDr)
				}
				start := int32(len(sc.tcTraj))
				for _, t := range sc.touched {
					if score := pref.Score(sc.dist[t]); score != 0 || pref.F == nil {
						sc.tcTraj = append(sc.tcTraj, int32(t))
						sc.tcScore = append(sc.tcScore, score)
					}
				}
				sc.segs = append(sc.segs, fillSeg{ri: int32(ri), start: start, end: int32(len(sc.tcTraj))})
			}
			// Install the arena segments. Segments index the arena instead
			// of aliasing it mid-build, because append may have moved it;
			// now that this worker is done the backing arrays are stable.
			// Representatives are claimed uniquely, so the installs of
			// different workers touch disjoint sites.
			for _, seg := range sc.segs {
				cs.SetTCArrays(seg.ri, sc.tcTraj[seg.start:seg.end], sc.tcScore[seg.start:seg.end])
			}
		}(w)
	}
	wg.Wait()
	// Finalize copies the borrowed segments (arena and prev alike) into the
	// CSR arrays, so the scratches only recycle afterwards.
	aborted := canceled.Load()
	if !aborted {
		cs.Finalize()
	}
	swept := 0
	for _, sc := range scratches {
		swept += len(sc.segs)
		fillScratchPool.Put(sc)
	}
	if aborted {
		return nil, 0, ctx.Err()
	}
	return cs, swept, nil
}

// CoverFor returns the §5.1 covering structure of instance p under pref,
// memoized per (instance, preference fingerprint). The third return reports
// whether the call was served from cache. The returned CoverSets is shared
// between callers and must be treated as read-only (the greedy algorithms
// already are).
//
// A cached cover is checked against the index state on every lookup (see
// coverFor), so it is always consistent with the state at call time —
// provided queries and mutations are serialized by the caller (see
// internal/engine).
func (idx *Index) CoverFor(p int, pref tops.Preference) (*tops.CoverSets, []ClusterID, bool) {
	cs, reps, swept, _ := idx.CoverForCtx(context.Background(), p, pref)
	return cs, reps, swept == 0
}

// CoverForCtx is CoverFor under a request context. The third return is the
// number of representative rows the lookup had to sweep: 0 is a cache hit.
// Concurrent callers of the same key singleflight onto one fill.
func (idx *Index) CoverForCtx(ctx context.Context, p int, pref tops.Preference) (*tops.CoverSets, []ClusterID, int, error) {
	return idx.coverFor(ctx, coverKey{p: p, fp: PrefFingerprint(pref)}, pref, nil)
}

// coverFor is the memoized cover lookup behind CoverForCtx (keep unused)
// and CoverForMaskedCtx, serving in the three steps of the file comment.
// Step 1 is lock-free on the entry; steps 2 and 3 run under the entry's
// singleflight. This is the one place concurrent look-alike queries
// coalesce — the serving layers above call straight through to it.
func (idx *Index) coverFor(ctx context.Context, key coverKey, pref tops.Preference, keep []ClusterID) (*tops.CoverSets, []ClusterID, int, error) {
	gen := idx.Instances[key.p].repGen
	idx.coverMu.Lock()
	if idx.coverCache == nil {
		idx.coverCache = make(map[coverKey]*coverEntry)
	}
	e, ok := idx.coverCache[key]
	if !ok {
		e = &coverEntry{}
		idx.coverCache[key] = e
	}
	idx.coverMu.Unlock()

	c, swept := e.cur.Load(), 0
	if !c.current(gen, keep) {
		var err error
		if c, swept, err = idx.refreshCover(ctx, e, key, gen, pref, keep); err != nil {
			return nil, nil, 0, err
		}
	}
	if swept == 0 {
		idx.coverHits.Add(1)
	} else {
		idx.coverMisses.Add(1)
		idx.coverRowsSwept.Add(uint64(swept))
	}
	return c.cs, c.plan.Reps, swept, nil
}

// refreshCover brings entry e up to generation gen and mask keep: steps 2
// and 3 of coverFor, and the wait of a caller that lost the race to run
// them. On a canceled fill e keeps its previous cover.
func (idx *Index) refreshCover(ctx context.Context, e *coverEntry, key coverKey, gen uint64, pref tops.Preference, keep []ClusterID) (*cachedCover, int, error) {
	e.fill.Lock()
	defer e.fill.Unlock()
	prev := e.cur.Load()
	if prev.current(gen, keep) {
		return prev, 0, nil
	}
	var pl *CoverPlan
	if key.masked {
		pl = idx.maskedPlan(key.p, keep)
	} else {
		pl = idx.coverPlan(key.p)
	}
	next := &cachedCover{plan: pl, keep: slices.Clone(keep)}
	swept := 0
	if prev != nil && prev.plan.sameRows(pl) {
		next.cs = prev.cs
		idx.coverRevalidated.Add(1)
	} else {
		var err error
		if next.cs, swept, err = idx.fillCover(ctx, key.p, pl, pref, prev); err != nil {
			return nil, 0, err
		}
	}
	e.cur.Store(next)
	return next, swept, nil
}

// Masked covers: the sharding layer (internal/shard) partitions cluster
// ownership across per-shard indexes and asks each shard to fill covering
// structures only for the clusters it owns. The fill machinery is the full
// RepCover pipeline over a filtered plan; memoization reuses the cover
// cache, one masked slot per (instance, ψ fingerprint), validated against
// the requested mask by value. An ownership move therefore costs the
// gaining shard a one-row insert and the losing shard a one-row drop (which
// sweeps nothing), the same patch path a moved representative takes.

// RepInfo describes one cluster representative of an instance: the cluster,
// the representative's node, and dr(c_i, r_i). The sharding layer reduces
// RepInfos across shards to find each cluster's globally closest site (the
// JSON form is a row of GET /v1/shard/reps).
type RepInfo struct {
	Cluster ClusterID      `json:"c"`
	Node    roadnet.NodeID `json:"v"`
	Dr      float64        `json:"dr"`
}

// RepInfos lists the representatives of instance p in ascending cluster
// order — the same order the cover plan (and therefore the dense
// representative index space of a query) uses.
func (idx *Index) RepInfos(p int) []RepInfo {
	ins := idx.Instances[p]
	out := make([]RepInfo, 0, len(ins.Clusters))
	for ci := range ins.Clusters {
		cl := &ins.Clusters[ci]
		if cl.Rep == roadnet.InvalidNode {
			continue
		}
		out = append(out, RepInfo{Cluster: ClusterID(ci), Node: cl.Rep, Dr: cl.RepDr})
	}
	return out
}

// ClusterOf returns the cluster of node v at instance p, or InvalidCluster
// when v is outside the graph. Site mutations change representatives only
// inside this cluster, which is what lets the sharding layer maintain its
// cluster-ownership tables incrementally instead of re-reducing every
// cluster after each update.
func (idx *Index) ClusterOf(p int, v roadnet.NodeID) ClusterID {
	ins := idx.Instances[p]
	if v < 0 || int(v) >= len(ins.NodeCluster) {
		return InvalidCluster
	}
	return ins.NodeCluster[v]
}

// RepOfCluster returns cluster ci's representative at instance p, reporting
// false when the cluster fields none (or ci is out of range).
func (idx *Index) RepOfCluster(p int, ci ClusterID) (RepInfo, bool) {
	ins := idx.Instances[p]
	if ci < 0 || int(ci) >= len(ins.Clusters) {
		return RepInfo{}, false
	}
	cl := &ins.Clusters[ci]
	if cl.Rep == roadnet.InvalidNode {
		return RepInfo{}, false
	}
	return RepInfo{Cluster: ci, Node: cl.Rep, Dr: cl.RepDr}, true
}

// maskedPlan assembles a cover plan for exactly the clusters in keep
// (sorted ascending), straight from the instance — deliberately NOT via the
// cached full plan, whose post-mutation rebuild costs O(all
// representatives) when the mask needs only its own slice. Clusters in keep
// that currently field no representative are silently absent from the
// result, so a slightly stale mask degrades to a smaller cover instead of
// failing.
func (idx *Index) maskedPlan(p int, keep []ClusterID) *CoverPlan {
	ins := idx.Instances[p]
	sub := &CoverPlan{gen: ins.repGen}
	for _, ci := range keep {
		if ci < 0 || int(ci) >= len(ins.Clusters) {
			continue
		}
		appendPlanEntry(sub, ins, ci)
	}
	return sub
}

// RepCoverMaskedCtx is RepCoverCtx restricted to the representatives of the
// clusters in keep (sorted ascending). The returned dense representative
// space is the filtered plan: index i maps to the i-th returned cluster.
func (idx *Index) RepCoverMaskedCtx(ctx context.Context, p int, pref tops.Preference, keep []ClusterID) (*tops.CoverSets, []ClusterID, error) {
	pl := idx.maskedPlan(p, keep)
	cs, _, err := idx.fillCover(ctx, p, pl, pref, nil)
	if err != nil {
		return nil, nil, err
	}
	return cs, pl.Reps, nil
}

// CoverForMaskedCtx is the memoized form of RepCoverMaskedCtx, with
// CoverForCtx's returns.
func (idx *Index) CoverForMaskedCtx(ctx context.Context, p int, pref tops.Preference, keep []ClusterID) (*tops.CoverSets, []ClusterID, int, error) {
	return idx.coverFor(ctx, coverKey{p: p, fp: PrefFingerprint(pref), masked: true}, pref, keep)
}

// invalidateCovers drops every memoized cover. Trajectory mutations call it
// (see the file comment for why rows are not patched there); the plans stay,
// because trajectories only change TL contents, which live in the fill. Site
// mutations do not call it: they bump Instance.repGen where a representative
// moved, and lookups revalidate against that.
func (idx *Index) invalidateCovers() {
	idx.coverMu.Lock()
	defer idx.coverMu.Unlock()
	if len(idx.coverCache) > 0 {
		idx.coverCache = make(map[coverKey]*coverEntry, len(idx.coverCache))
	}
}

// CoverCacheStats returns cumulative cover-cache counters. Entries counts
// the slots holding a cover (a slot whose only fill was canceled holds none).
func (idx *Index) CoverCacheStats() CoverCacheStats {
	st := CoverCacheStats{
		Hits:        idx.coverHits.Load(),
		Misses:      idx.coverMisses.Load(),
		Revalidated: idx.coverRevalidated.Load(),
		RowsSwept:   idx.coverRowsSwept.Load(),
	}
	idx.coverMu.Lock()
	defer idx.coverMu.Unlock()
	for _, e := range idx.coverCache {
		if e.cur.Load() != nil {
			st.Entries++
		}
	}
	return st
}
