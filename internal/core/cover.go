package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// This file splits the §5.1 RepCover computation into two halves with very
// different lifetimes:
//
//   - CoverPlan: which clusters field a representative and, per
//     representative, the ordered scan list (own cluster first, then CL
//     neighbors with their center distances) plus dr(c_i, r_i). This depends
//     only on the clustering and the site set, so it is computed once per
//     instance and reused across every preference function until a site
//     mutation moves a representative.
//   - the fill: evaluating Eq. 9 over the scan lists for a concrete ψ. The
//     fill shards representatives across workers, each with a dense
//     epoch-stamped scratch array instead of the former per-representative
//     map, and the results are memoized per (instance, ψ fingerprint) in a
//     cache that every §6 mutation invalidates.
//
// The Index alone does not serialize queries against mutations; the
// concurrency protocol (readers query, writers mutate+invalidate) is owned
// by internal/engine.

// CoverPlan is the reusable positional half of the covering-structure
// computation for one instance. The per-representative scan order (own
// cluster first, then CL neighbors with their center distances) is read
// straight off the immutable CL lists at fill time — CL is built once per
// instance and no §6 mutation touches it, so the plan only needs the
// representative list and its dr snapshot.
type CoverPlan struct {
	// Reps maps dense representative index -> cluster id.
	Reps []ClusterID
	// repDr[ri] is dr(c_i, r_i) for Reps[ri], snapshotted at plan time.
	repDr []float64
}

// coverKey identifies one memoized cover: the ladder instance, a
// fingerprint of the preference function, and — for masked fills driven by
// the sharded engine — a fingerprint of the cluster mask. Full covers use
// mask 0; MaskFingerprint never returns 0.
type coverKey struct {
	p    int
	fp   uint64
	mask uint64
}

// coverEntry is a singleflight slot: the first goroutine to claim the key
// fills it, concurrent claimants block on the Once and share the result —
// including a fill error (a canceled context), in which case the entry is
// evicted so the next caller retries instead of inheriting the failure.
type coverEntry struct {
	once sync.Once
	cs   *tops.CoverSets
	reps []ClusterID
	err  error
}

// CoverCacheStats reports cover-cache effectiveness counters.
type CoverCacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
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

// coverPlan returns instance p's plan, building it on first use.
func (idx *Index) coverPlan(p int) *CoverPlan {
	idx.coverMu.Lock()
	if idx.coverPlans == nil {
		idx.coverPlans = make([]*CoverPlan, len(idx.Instances))
	}
	if pl := idx.coverPlans[p]; pl != nil {
		idx.coverMu.Unlock()
		return pl
	}
	idx.coverMu.Unlock()

	pl := idx.buildCoverPlan(p)

	idx.coverMu.Lock()
	idx.coverPlans[p] = pl
	idx.coverMu.Unlock()
	return pl
}

func (idx *Index) buildCoverPlan(p int) *CoverPlan {
	ins := idx.Instances[p]
	pl := &CoverPlan{}
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

// fillCover evaluates Eq. 9 for every representative of the plan under the
// given preference, sharding representatives across NumCPU workers. Workers
// write disjoint TC slots (tops.CoverSets.SetTCArrays over arena segments);
// the trajectory-side SC lists are derived by the single Finalize pass
// afterwards.
//
// The per-representative sweep is the expensive part of a query, so it is
// also where request deadlines bite: every worker checks ctx between
// representatives and the whole fill aborts with the context error once any
// worker observes cancellation. A canceled fill is never returned (nor
// memoized), so partially filled covers cannot leak into answers.
func (idx *Index) fillCover(ctx context.Context, p int, pl *CoverPlan, pref tops.Preference) (*tops.CoverSets, error) {
	ins := idx.Instances[p]
	m := idx.trajs.Len()
	cs := tops.NewCoverSets(len(pl.Reps), m)
	nReps := len(pl.Reps)
	if nReps == 0 {
		return cs, nil
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
				sc.reset()
				repDr := pl.repDr[ri]
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
	if canceled.Load() {
		for _, sc := range scratches {
			if sc != nil {
				fillScratchPool.Put(sc)
			}
		}
		return nil, ctx.Err()
	}
	// Finalize copies the borrowed arena segments into the CSR arrays, so
	// the scratches only recycle afterwards.
	cs.Finalize()
	for _, sc := range scratches {
		if sc != nil {
			fillScratchPool.Put(sc)
		}
	}
	return cs, nil
}

// CoverFor returns the §5.1 covering structure of instance p under pref,
// memoized per (instance, preference fingerprint). The third return reports
// whether the call was served from cache. The returned CoverSets is shared
// between callers and must be treated as read-only (the greedy algorithms
// already are).
//
// Every §6 mutation invalidates the cache, so a cached cover is always
// consistent with the index state at call time — provided queries and
// mutations are serialized by the caller (see internal/engine).
func (idx *Index) CoverFor(p int, pref tops.Preference) (*tops.CoverSets, []ClusterID, bool) {
	cs, reps, hit, _ := idx.CoverForCtx(context.Background(), p, pref)
	return cs, reps, hit
}

// CoverForCtx is CoverFor under a request context. Concurrent callers of
// the same key singleflight onto one fill. A canceled fill is never
// memoized: the poisoned entry is dropped, the filler returns its own
// context error, and waiters whose contexts are still live retry — one
// aggressive-deadline client therefore cannot fail well-behaved concurrent
// requests for the same cover.
func (idx *Index) CoverForCtx(ctx context.Context, p int, pref tops.Preference) (*tops.CoverSets, []ClusterID, bool, error) {
	return idx.coverFor(ctx, coverKey{p: p, fp: PrefFingerprint(pref)}, pref, nil)
}

// coverFor is the memoized cover lookup behind CoverForCtx (key.mask == 0,
// keep unused) and CoverForMaskedCtx: claim the key's entry, fill it under
// its Once or share the fill another caller is running, count the hit or
// miss, and on a failed fill evict the entry and retry while the caller's
// own context is live. This is the one place concurrent look-alike queries
// coalesce — the serving layers above call straight through to it.
func (idx *Index) coverFor(ctx context.Context, key coverKey, pref tops.Preference, keep []ClusterID) (*tops.CoverSets, []ClusterID, bool, error) {
	for {
		idx.coverMu.Lock()
		if idx.coverCache == nil {
			idx.coverCache = make(map[coverKey]*coverEntry)
		}
		if key.mask != 0 {
			idx.purgePreviousMask(key.p, key.mask)
		}
		e, ok := idx.coverCache[key]
		if !ok {
			e = &coverEntry{}
			idx.coverCache[key] = e
		}
		idx.coverMu.Unlock()

		hit := true
		e.once.Do(func() {
			hit = false
			if key.mask == 0 {
				e.cs, e.reps, e.err = idx.RepCoverCtx(ctx, key.p, pref)
			} else {
				e.cs, e.reps, e.err = idx.RepCoverMaskedCtx(ctx, key.p, pref, keep)
			}
		})
		if e.err == nil {
			if hit {
				idx.coverHits.Add(1)
			} else {
				idx.coverMisses.Add(1)
			}
			return e.cs, e.reps, hit, nil
		}
		idx.coverMu.Lock()
		if idx.coverCache[key] == e {
			delete(idx.coverCache, key)
		}
		idx.coverMu.Unlock()
		// The fill aborted under the FILLER's context. Give up only if our
		// own context is also done; otherwise loop — the entry is evicted,
		// so the retry claims (or joins) a fresh fill. Each iteration
		// consumes one completed fill attempt, so this cannot spin.
		if err := ctx.Err(); err != nil {
			return nil, nil, false, err
		}
	}
}

// Masked covers: the sharding layer (internal/shard) partitions cluster
// ownership across per-shard indexes and asks each shard to fill covering
// structures only for the clusters it owns. The fill machinery is the full
// RepCover pipeline over a filtered plan; memoization reuses the cover
// cache under a (instance, ψ fingerprint, mask fingerprint) key.
//
// At any moment a shard serves exactly one mask per instance (its current
// ownership), so when a new mask shows up for an instance the entries under
// the instance's previous mask are purged — this is the cross-shard
// invalidation hook: a site mutation on one shard changes ownership masks
// elsewhere, and the stale masked covers on those shards evaporate on first
// contact instead of accumulating.

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

// MaskFingerprint hashes a sorted cluster-id mask into a cover-cache key
// component. It never returns 0 (0 is the full, unmasked cover). Like
// PrefFingerprint it is inline FNV-1a over the same byte stream the former
// hash/fnv version consumed: the sharded engine computes it per lookup.
func MaskFingerprint(keep []ClusterID) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range keep {
		h = fnvByte(h, byte(c))
		h = fnvByte(h, byte(c>>8))
		h = fnvByte(h, byte(c>>16))
		h = fnvByte(h, byte(c>>24))
	}
	return h | 1
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
	sub := &CoverPlan{}
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
	cs, err := idx.fillCover(ctx, p, pl, pref)
	if err != nil {
		return nil, nil, err
	}
	return cs, pl.Reps, nil
}

// CoverForMaskedCtx is the memoized form of RepCoverMaskedCtx. Presenting a
// new mask for an instance purges the instance's entries under its previous
// mask (see the package comment above on cross-shard invalidation).
func (idx *Index) CoverForMaskedCtx(ctx context.Context, p int, pref tops.Preference, keep []ClusterID) (*tops.CoverSets, []ClusterID, bool, error) {
	return idx.coverFor(ctx, coverKey{p: p, fp: PrefFingerprint(pref), mask: MaskFingerprint(keep)}, pref, keep)
}

// purgePreviousMask records mask as instance p's current one, dropping the
// entries memoized under the mask it replaces. Caller holds coverMu.
func (idx *Index) purgePreviousMask(p int, mask uint64) {
	if idx.coverMasks == nil {
		idx.coverMasks = make(map[int]uint64)
	}
	if cur, ok := idx.coverMasks[p]; ok && cur != mask {
		for k := range idx.coverCache {
			if k.p == p && k.mask == cur {
				delete(idx.coverCache, k)
			}
		}
	}
	idx.coverMasks[p] = mask
}

// invalidateCovers drops every memoized cover; sitesChanged additionally
// drops the per-instance plans (a site mutation can move or remove a
// representative). Trajectory mutations keep the plans: they only change TL
// contents, which live in the fill, not the plan.
//
// Invalidation is deliberately whole-index: a trajectory registers in every
// ladder instance and site renumbering is global, so there is no cheaper
// sound granularity.
func (idx *Index) invalidateCovers(sitesChanged bool) {
	idx.coverMu.Lock()
	defer idx.coverMu.Unlock()
	if len(idx.coverCache) > 0 {
		idx.coverCache = make(map[coverKey]*coverEntry, len(idx.coverCache))
	}
	if sitesChanged {
		for i := range idx.coverPlans {
			idx.coverPlans[i] = nil
		}
	}
}

// CoverCacheStats returns cumulative cover-cache counters.
func (idx *Index) CoverCacheStats() CoverCacheStats {
	idx.coverMu.Lock()
	entries := len(idx.coverCache)
	idx.coverMu.Unlock()
	return CoverCacheStats{
		Hits:    idx.coverHits.Load(),
		Misses:  idx.coverMisses.Load(),
		Entries: entries,
	}
}
