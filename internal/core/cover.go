package core

import (
	"context"
	"math"
	"math/bits"
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
//     dense scratch array and a bitmap of the trajectories the row reached,
//     emits every row in ascending trajectory id, and the result is memoized
//     per (instance, ψ fingerprint) together with the plan rows and the
//     trajectory state it was computed from.
//
// A memoized cover is brought up to date, not dropped, when sites or
// trajectories change. A site mutation bumps Instance.repGen only where some
// cluster's representative presence or RepDr actually moved; a trajectory
// add grows the store and a delete bumps Index.trajDels. A lookup (coverFor)
// serves in four steps under one singleflight per key:
//
//  1. generation and trajectory state equal: hit, O(1), no allocation;
//  2. trajectories changed: extend the cover over its own rows (extendCover)
//     — each row keeps its entries, loses those of deleted trajectories and
//     gains those of the trajectories added since, found by sweeping only
//     the TL tails past the cover's horizon; no row is swept whole, so it is
//     a hit;
//  3. generation moved: compare the entry's (cluster, RepDr) rows with the
//     current plan by value; equal (a delete-then-re-add, any update that
//     nets out) adopts the generation and is a hit;
//  4. rows differ: build a new CoverSets copy-on-write, borrowing every row
//     whose (cluster, RepDr) is unchanged from the old flat arrays and
//     sweeping only changed or inserted rows (fillCover — a cold fill is the
//     same function with nothing to borrow from).
//
// A row is a pure function of (cluster, RepDr, ψ, trajectory state), and
// Finalize derives everything else from the rows, so a patched cover is
// byte-equal to a fresh one (TestCoverRevalidationDifferential).
//
// Step 2 is bit-exact because rows are in ascending id: an added trajectory
// has a larger id than every entry of the old row, so its entry goes at the
// tail, and the site weight — Finalize's left-to-right sum of the row — goes
// on from the old weight; no other trajectory's entry changes, since an
// entry is that trajectory's minimum d̂r over the row's scan set.
// tops.CoverSets.FinalizeAppend writes the new tails into the old cover's
// rows instead of re-deriving the CSR: the extended cover shares the old
// one's arrays, each row takes its tail in the room past its end (or moves to
// the arena's tail), and only when the arena runs out of room is every row
// laid out again. On bangalore 0.01 a 64-trace ingest window adds about 11 %
// of each probe cover's pairs (about 4 % by the end of a 1 000-trace feed).
// BenchmarkQueryAfterIngestWindow/stale times the first query per cover
// after a window at about 0.38 ms p50 on a 2-core host (0.48 ms when
// FinalizeAppend copied the whole cover, 0.9–1.3 ms with a cold fill, a hot
// query about 0.06 ms); most of what is left is the sweep of the TL tails
// and the greedy.
// Emitting rows in id order costs a cold fill a bitmap walk per row
// (a sort of the reached ids when the row is too sparse for the walk):
// about 7 % on BenchmarkCoverAfterSiteUpdate/refill.
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
// they were last found current at), the mask it was requested under (a
// private copy — the caller's is spliced in place on ownership moves), and
// the trajectory state it was filled at — the store size, which is cs.M,
// and dels, the index's trajectory-delete count.
type cachedCover struct {
	cs   *tops.CoverSets
	plan *CoverPlan
	keep []ClusterID
	dels uint64
}

// trajsCurrent reports that no trajectory was added or deleted since c was
// filled.
func (idx *Index) trajsCurrent(c *cachedCover) bool {
	return c.cs.M == idx.trajs.Len() && c.dels == idx.trajDels
}

// current is step 1 of coverFor: no representative row of the instance moved
// and no trajectory op happened since the cover was validated, and it was
// filled for this mask.
func (idx *Index) current(c *cachedCover, gen uint64, keep []ClusterID) bool {
	return c != nil && c.plan.gen == gen && idx.trajsCurrent(c) && slices.Equal(c.keep, keep)
}

// CoverCacheStats reports cover-cache effectiveness counters. A hit is a
// lookup that swept no representative row whole (steps 1 to 3 of coverFor;
// Revalidated counts the lookups that ran step 2 or 3 and swept none), a
// miss one that swept at least one (a row patch or a cold fill); RowsSwept
// totals the rows.
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

// fillScratch is one worker's dense scratch state: dist[t] is the smallest
// d̂r the current row has found for trajectory t, +Inf while it has found
// none, and bit t of seen marks that it has found one. A row emits its
// entries in ascending id from seen and resets each dist and seen word it
// used as it goes, so between rows dist is all +Inf and seen all zero, and
// nothing is reset per representative. It also carries the worker's result
// arena: the per-representative TC lists accumulate into two flat parallel
// slices (struct-of-arrays, matching CoverSets' final layout) with (start,
// end) segments recorded per representative, so a whole fill costs the
// worker zero allocations once the arena has grown to steady state.
//
// Scratches recycle through a package pool. The arena is borrowed by the
// CoverSets staging until Finalize copies it into the flat CSR arrays, so
// sweepRows only returns scratches to the pool after sealing.
type fillScratch struct {
	dist    []float64
	seen    []uint64
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
// the arena. Between rows dist is +Inf and seen is zero throughout, so a
// smaller universe just narrows the index range, and a larger one grows the
// arrays to twice their size at least: the store grows by every ingest
// window, and each extension would otherwise reallocate them.
func (s *fillScratch) prepare(m int) {
	if len(s.dist) < m {
		n := max(m, 2*len(s.dist))
		s.dist = make([]float64, n)
		for t := range s.dist {
			s.dist[t] = math.Inf(1)
		}
		s.seen = make([]uint64, (n+63)/64)
	}
	s.touched = s.touched[:0]
	s.tcTraj = s.tcTraj[:0]
	s.tcScore = s.tcScore[:0]
	s.segs = s.segs[:0]
}

// rowSweep is what every row of one sweepRows call shares: the instance,
// the preference, the trajectory universe [from, m) the rows are restricted
// to, and for a tail sweep (from > 0) each cluster's tail — the entries of
// its TL with id >= from, packed in one slice for locality (most are empty).
type rowSweep struct {
	ins   *Instance
	pref  tops.Preference
	from  trajectory.ID
	m     int
	tails [][]TrajEntry
}

// newRowSweep prepares the sweep of instance p's rows over ids >= from.
// TL lists are ascending by id and list exactly the live trajectories
// through their cluster, so a cluster's tail is its last n entries, n being
// how many live ids >= from pass through it (deleted ids have no CC).
func (idx *Index) newRowSweep(p int, pref tops.Preference, from trajectory.ID) *rowSweep {
	rs := &rowSweep{ins: idx.Instances[p], pref: pref, from: from, m: idx.trajs.Len()}
	if from > 0 {
		n := make([]int32, len(rs.ins.Clusters))
		for _, cc := range rs.ins.CC[from:rs.m] {
			for _, c := range cc {
				n[c]++
			}
		}
		rs.tails = make([][]TrajEntry, len(rs.ins.Clusters))
		for ci, k := range n {
			if tl := rs.ins.Clusters[ci].TL; k > 0 {
				rs.tails[ci] = tl[len(tl)-int(k):]
			}
		}
	}
	return rs
}

// sweepRow appends to the arena the TC row of the representative of cluster
// ci at dr(c_i, r_i) = repDr, restricted to the trajectories of rs, in
// ascending id.
func (sc *fillScratch) sweepRow(rs *rowSweep, ci ClusterID, repDr float64) {
	ins, pref, tau := rs.ins, rs.pref, rs.pref.Tau
	// TL lists only live trajectories (deleteTrajectories drops the entries
	// of the dead, and ReadIndex rejects any other TL).
	sweep := func(tl []TrajEntry, base float64) {
		for _, te := range tl {
			dHat := te.Dr + base
			if dHat > tau || dHat >= sc.dist[te.Traj] {
				continue
			}
			if math.IsInf(sc.dist[te.Traj], 1) {
				sc.seen[te.Traj>>6] |= 1 << (te.Traj & 63)
				sc.touched = append(sc.touched, te.Traj)
			}
			sc.dist[te.Traj] = dHat
		}
	}
	// Scan order matches the former materialized scan lists — own cluster
	// (centerDr 0) first, then CL neighbors — with the identical float
	// association, so fills are bit-stable across this representation change.
	cl := &ins.Clusters[ci]
	if rs.tails == nil {
		sweep(cl.TL, 0+repDr)
		for _, nb := range cl.CL {
			sweep(ins.Clusters[nb.Cluster].TL, nb.Dr+repDr)
		}
	} else {
		sweep(rs.tails[ci], 0+repDr)
		for _, nb := range cl.CL {
			sweep(rs.tails[nb.Cluster], nb.Dr+repDr)
		}
	}
	// Put touched in ascending id: rewrite it from the bitmap when the words
	// the row can have set are few next to its entries, else sort it.
	if lo, hi := int(rs.from)>>6, (rs.m+63)>>6; hi-lo <= 8*len(sc.touched) {
		k := 0
		for w := lo; w < hi; w++ {
			word := sc.seen[w]
			if word == 0 {
				continue
			}
			sc.seen[w] = 0
			for ; word != 0; word &= word - 1 {
				sc.touched[k] = trajectory.ID(w<<6 | bits.TrailingZeros64(word))
				k++
			}
		}
	} else {
		slices.Sort(sc.touched)
		for _, t := range sc.touched {
			sc.seen[t>>6] = 0
		}
	}
	for _, t := range sc.touched {
		if score := pref.Score(sc.dist[t]); score != 0 || pref.F == nil {
			sc.tcTraj = append(sc.tcTraj, int32(t))
			sc.tcScore = append(sc.tcScore, score)
		}
		sc.dist[t] = math.Inf(1)
	}
	sc.touched = sc.touched[:0]
}

// sweepRows stages into cs the TC rows of plan pl restricted to trajectory
// ids >= from, sharded across NumCPU workers, then runs seal (one of
// CoverSets' two finalizers) before the worker arenas the staged rows point
// into go back to the pool. borrow, when non-nil, may install row ri itself
// and report true, and that row is not swept. The first return counts the
// rows swept.
//
// The per-representative sweep is the expensive part of a query, so it is
// also where request deadlines bite: every worker checks ctx between
// representatives and the whole sweep aborts with the context error once any
// worker observes cancellation, without sealing. A canceled cover is never
// returned (nor memoized), so partially filled covers cannot leak into
// answers.
func (idx *Index) sweepRows(ctx context.Context, p int, pl *CoverPlan, pref tops.Preference, cs *tops.CoverSets, from trajectory.ID, borrow func(ri int) bool, seal func()) (int, error) {
	rs := idx.newRowSweep(p, pref, from)
	nReps := len(pl.Reps)
	workers := min(runtime.NumCPU(), nReps)
	var next atomic.Int64
	var canceled atomic.Bool
	var wg sync.WaitGroup
	scratches := make([]*fillScratch, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := fillScratchPool.Get().(*fillScratch)
			sc.prepare(rs.m)
			scratches[w] = sc
			for {
				ri := int(next.Add(1)) - 1
				if ri >= nReps || canceled.Load() {
					break
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					break
				}
				if borrow != nil && borrow(ri) {
					continue
				}
				start := int32(len(sc.tcTraj))
				sc.sweepRow(rs, pl.Reps[ri], pl.repDr[ri])
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
		}()
	}
	wg.Wait()
	aborted := canceled.Load()
	if !aborted {
		seal()
	}
	swept := 0
	for _, sc := range scratches {
		swept += len(sc.segs)
		fillScratchPool.Put(sc)
	}
	if aborted {
		return 0, ctx.Err()
	}
	return swept, nil
}

// fillCover builds the covering structure of plan pl under the given
// preference: one TC row per representative. A row is a pure function of
// (cluster, RepDr, ψ, trajectory state), so when prev — a cover of the same
// key at the current trajectory state — has a row with the same (cluster,
// RepDr), that row is borrowed from prev's flat arrays instead of swept; a
// cold fill is the case prev == nil. Finalize then derives the CSR arrays and
// the trajectory-side SC lists, copying borrowed rows too, so prev is never
// aliased by the result. The second return counts the rows swept.
func (idx *Index) fillCover(ctx context.Context, p int, pl *CoverPlan, pref tops.Preference, prev *cachedCover) (*tops.CoverSets, int, error) {
	cs := tops.NewCoverSets(len(pl.Reps), idx.trajs.Len())
	var borrow func(ri int) bool
	if prev != nil {
		borrow = func(ri int) bool {
			pri, ok := slices.BinarySearch(prev.plan.Reps, pl.Reps[ri])
			if !ok || prev.plan.repDr[pri] != pl.repDr[ri] {
				return false
			}
			trajs, scores := prev.cs.TC(int32(pri))
			cs.SetTCArrays(int32(ri), trajs, scores)
			return true
		}
	}
	swept, err := idx.sweepRows(ctx, p, pl, pref, cs, 0, borrow, cs.Finalize)
	if err != nil {
		return nil, 0, err
	}
	return cs, swept, nil
}

// extendCover brings cover c, filled at an earlier trajectory state, to the
// current one over its own plan rows. Every id the store gained since is
// larger than every id in c, and every surviving trajectory's entries are
// unchanged, so a row at the current state is c's row without the deleted
// trajectories followed by a sweep of only the TL tails past c's horizon —
// rows are in ascending id, which makes that exactly what a fresh fill
// produces. tops.CoverSets.FinalizeAppend writes the tails into c's rows,
// in c's own arrays when c's room has not been claimed yet. No row is swept
// whole.
func (idx *Index) extendCover(ctx context.Context, p int, c *cachedCover, pref tops.Preference) (*tops.CoverSets, error) {
	cs := tops.NewCoverSets(len(c.plan.Reps), idx.trajs.Len())
	var live []bool
	if c.dels != idx.trajDels {
		live = idx.alive
	}
	seal := func() { cs.FinalizeAppend(c.cs, live) }
	if cs.M == c.cs.M {
		seal()
		return cs, nil
	}
	if _, err := idx.sweepRows(ctx, p, c.plan, pref, cs, trajectory.ID(c.cs.M), nil, seal); err != nil {
		return nil, err
	}
	return cs, nil
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
// and CoverForMaskedCtx, serving in the four steps of the file comment.
// Step 1 is lock-free on the entry; steps 2 to 4 run under the entry's
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
	if !idx.current(c, gen, keep) {
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

// refreshCover brings entry e up to generation gen, mask keep and the
// current trajectory state: steps 2 to 4 of coverFor (step 2 first, so the
// row comparison of steps 3 and 4 runs against the extended cover), and the
// wait of a caller that lost the race to run them. On a canceled fill e
// keeps its previous cover.
func (idx *Index) refreshCover(ctx context.Context, e *coverEntry, key coverKey, gen uint64, pref tops.Preference, keep []ClusterID) (*cachedCover, int, error) {
	e.fill.Lock()
	defer e.fill.Unlock()
	prev := e.cur.Load()
	if idx.current(prev, gen, keep) {
		return prev, 0, nil
	}
	var pl *CoverPlan
	if key.masked {
		pl = idx.maskedPlan(key.p, keep)
	} else {
		pl = idx.coverPlan(key.p)
	}
	if prev != nil && !idx.trajsCurrent(prev) {
		cs, err := idx.extendCover(ctx, key.p, prev, pref)
		if err != nil {
			return nil, 0, err
		}
		prev = &cachedCover{cs: cs, plan: prev.plan, keep: prev.keep, dels: idx.trajDels}
	}
	next := &cachedCover{plan: pl, keep: slices.Clone(keep), dels: idx.trajDels}
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
