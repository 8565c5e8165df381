package tops

import (
	"fmt"
	"math"
	"sync/atomic"
)

// ScoredTraj is one member of a trajectory-cover set TC(s): a trajectory
// covered by the site together with its preference score ψ(T, s). The query
// hot path stores cover sets in flat parallel arrays (see CoverSets); this
// struct survives as the exchange type for algorithms that materialize
// per-trajectory gain lists (TOPS-CAPACITY's top-α selection).
type ScoredTraj struct {
	Traj  int32
	Score float64
}

// CoverSets holds the query-time covering structures of §3.2: for every
// site the trajectories it covers (TC) and for every trajectory the sites
// covering it (SC), with preference scores already evaluated, plus the site
// weights w_i = Σ ψ(T_j, s_i). The structure is deliberately decoupled from
// Instance so that NETCLUS can instantiate it over cluster representatives
// with estimated distances (§5.1) and reuse the same greedy machinery.
//
// Layout: the lists live in struct-of-arrays (CSR) form — one flat int32
// id array and one flat float64 score array per direction, indexed by
// offset tables — so a greedy sweep over every TC entry is a contiguous
// scan instead of a pointer chase through per-site slices. Construction
// goes through a staging phase (AddPair / SetTCArrays) and is sealed by
// Finalize, which flattens the staged lists and derives the SC side; the
// read accessors finalize lazily on first use. A finalized CoverSets is
// immutable and safe for concurrent readers; Finalize itself must not race
// with readers (parallel builders call it before sharing, as fillCover
// does).
//
// Site s's TC list is the span [tcOff[s], tcEnd[s]) of the TC arena, and
// [tcEnd[s], tcCap[s]) is the row's room. Finalize lays the rows out
// compactly, back to back with no room, and tcEnd and tcCap alias tcOff[1:].
// FinalizeAppend may instead grow a cover in place: the successor shares its
// predecessor's arenas, writes the new entries into the rows' room and past
// the arenas' lengths, and moves a row without room to the TC arena's tail
// (its old span becomes dead space, reclaimed by the next layout). Every
// reader of a cover stays within its own row ends and its own M, and a
// cover's room and arena tails are written by at most one successor (the
// claimed flag), so a published cover never sees a successor's writes.
type CoverSets struct {
	// M is the size of the trajectory universe; trajectory ids in TC are
	// indices in [0, M).
	M int
	// Weights[s] is the site weight w_s, the left-to-right sum of row s's
	// scores. The routine that seals the cover (Finalize, FinalizeAppend)
	// sums it; before that only AddPair keeps it current.
	Weights []float64

	// Finalized CSR arrays: site s's TC list is tcTraj/tcScore[tcOff[s] :
	// tcEnd[s]], trajectory t's SC list is scSite/scScore[scOff[t] :
	// scOff[t+1]]. tcTraj and tcScore are the TC arena: its length covers
	// every row's room and the dead spans of moved rows, and its capacity
	// past that is spare room for moves. SC lists are ordered by ascending
	// site id — the order the former RebuildSC derivation produced, which
	// the greedy's bit-exactness contract relies on only insofar as every
	// SC-driven marginal update touches a distinct site slot
	// (order-independent).
	tcOff   []int32
	tcEnd   []int32
	tcCap   []int32
	tcTraj  []int32
	tcScore []float64
	scOff   []int32
	scSite  []int32
	scScore []float64
	// pairs is the number of covering pairs, Σ tcEnd[s] − tcOff[s].
	pairs int
	// allPositive records that every stored score is > 0. Algorithm 1's
	// initial marginal of site s is then bit-identical to Weights[s]
	// (both are the same left-to-right sum over the same values), letting
	// the greedy seed its marginals with one O(n) copy instead of an
	// O(pairs) scan.
	allPositive bool
	final       bool
	// claimed is set by the one FinalizeAppend that grows this cover in
	// place, writing into its rows' room and past its arenas' lengths.
	claimed atomic.Bool

	// Staging: per-site id/score lists before Finalize.
	stTraj  [][]int32
	stScore [][]float64
}

// rowRoom is the room a row of n entries gets when FinalizeAppend lays it
// out or moves it: half its entries and two more, so that a row takes
// several windows' growth in place before it moves again. A layout also
// leaves as much spare room again at the arena's tail for the moves that
// follow it. Rows tend to grow together, so every layout is a copy of the
// whole cover; half (against a quarter, or the row's own size) measured the
// cheapest stale query on BenchmarkQueryAfterIngestWindow without raising
// ingest_stream's rss_mb.
func rowRoom(n int) int { return n/2 + 2 }

// N returns the number of sites.
func (cs *CoverSets) N() int { return len(cs.Weights) }

// NewCoverSets allocates empty cover sets for n sites over m trajectories.
func NewCoverSets(n, m int) *CoverSets {
	return &CoverSets{
		M:       m,
		Weights: make([]float64, n),
		stTraj:  make([][]int32, n),
		stScore: make([][]float64, n),
	}
}

// AddPair registers that site s covers trajectory t with the given score,
// adding it to the site's weight as it goes. Callers are responsible for
// not adding duplicates. Panics after Finalize.
func (cs *CoverSets) AddPair(s, t int32, score float64) {
	cs.mutable()
	cs.stTraj[s] = append(cs.stTraj[s], t)
	cs.stScore[s] = append(cs.stScore[s], score)
	cs.Weights[s] += score
}

// SetTCArrays installs site s's complete trajectory list wholesale,
// replacing any previous entries, and leaves its weight to the routine that
// seals the cover (Finalize sums it; FinalizeAppend continues the previous
// cover's). It exists for parallel cover builders: workers fill disjoint
// sites concurrently (the slices are borrowed, not copied, until the seal
// copies them into the flat arrays), then a single pass seals the
// structure and derives the trajectory-side lists. The caller must not
// mutate the slices before the seal. Panics after Finalize.
func (cs *CoverSets) SetTCArrays(s int32, trajs []int32, scores []float64) {
	cs.mutable()
	cs.stTraj[s] = trajs[:len(trajs):len(trajs)]
	cs.stScore[s] = scores[:len(scores):len(scores)]
}

func (cs *CoverSets) mutable() {
	if cs.final {
		panic("tops: CoverSets mutated after Finalize")
	}
}

// Finalize flattens the staged lists into the CSR arrays, sums every site
// weight and derives every SC list from TC, releasing the staging storage. It is idempotent; the
// read accessors call it lazily, so explicit calls only matter before
// sharing the structure across goroutines.
func (cs *CoverSets) Finalize() {
	if cs.final {
		return
	}
	n := len(cs.Weights)
	total := 0
	for s := range cs.stTraj {
		total += len(cs.stTraj[s])
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("tops: %d covering pairs overflow the int32 offset table", total))
	}
	cs.tcOff = make([]int32, n+1)
	cs.tcTraj = make([]int32, total)
	cs.tcScore = make([]float64, total)
	counts := make([]int32, cs.M)
	allPos := true
	off := int32(0)
	for s := 0; s < n; s++ {
		cs.tcOff[s] = off
		tr, sv := cs.stTraj[s], cs.stScore[s]
		copy(cs.tcTraj[off:], tr)
		copy(cs.tcScore[off:], sv)
		var w float64
		for i, t := range tr {
			counts[t]++
			w += sv[i]
			if sv[i] <= 0 {
				allPos = false
			}
		}
		cs.Weights[s] = w
		off += int32(len(tr))
	}
	cs.tcOff[n] = off
	// Back-to-back rows have no room: their ends alias tcOff[1:].
	cs.tcEnd, cs.tcCap = cs.tcOff[1:], cs.tcOff[1:]
	cs.pairs = total
	cs.allPositive = allPos

	// SC side: prefix sums over per-trajectory counts, then a fill in
	// ascending site order (identical to the former RebuildSC order).
	cs.scOff = make([]int32, cs.M+1)
	var acc int32
	for t := 0; t < cs.M; t++ {
		cs.scOff[t] = acc
		acc += counts[t]
	}
	cs.scOff[cs.M] = acc
	cs.scSite = make([]int32, acc)
	cs.scScore = make([]float64, acc)
	next := counts // reuse as write cursors
	for t := 0; t < cs.M; t++ {
		next[t] = cs.scOff[t]
	}
	for s := 0; s < n; s++ {
		for i := cs.tcOff[s]; i < cs.tcOff[s+1]; i++ {
			t := cs.tcTraj[i]
			j := next[t]
			next[t]++
			cs.scSite[j] = int32(s)
			cs.scScore[j] = cs.tcScore[i]
		}
	}
	cs.stTraj, cs.stScore = nil, nil
	cs.final = true
}

// FinalizeAppend seals cs as prev grown by new trajectories, without
// re-deriving the rows prev already has. cs must have prev's sites, M no
// smaller than prev.M, and every staged row must list only trajectories
// >= prev.M, in ascending id. Row s of the result is prev's row s without the
// trajectories t < prev.M for which live[t] is false (nil keeps them all),
// followed by the staged row s.
//
// When prev's rows are in ascending trajectory order, the result is exactly
// what Finalize would produce from those concatenated rows: a weight goes on
// with the left-to-right sum of its row where prev's stopped, and every SC
// list stays in ascending site order.
//
// When prev lists no dead trajectory, the first FinalizeAppend onto prev
// claims it and grows it in place (appendInPlace): it writes only the new
// entries, plus the rows that must move, and shares prev's arenas. Any
// other call — a second append onto a claimed prev, or one that drops
// trajectories prev lists — copies prev's rows into a fresh arena with room
// (layout), filtering only the rows that list a dead trajectory.
func (cs *CoverSets) FinalizeAppend(prev *CoverSets, live []bool) {
	cs.mutable()
	prev.ensure()
	n, base := len(cs.Weights), prev.M
	if prev.N() != n || base > cs.M {
		panic(fmt.Sprintf("tops: cannot append %d sites x %d trajectories onto %d x %d", n, cs.M, prev.N(), base))
	}
	// The trajectories of prev that died, and the rows listing them.
	var dirty []bool
	if live != nil {
		for t := 0; t < base; t++ {
			if lo, hi := prev.scOff[t], prev.scOff[t+1]; !live[t] && lo < hi {
				if dirty == nil {
					dirty = make([]bool, n)
				}
				for _, s := range prev.scSite[lo:hi] {
					dirty[s] = true
				}
			}
		}
	}
	// Each TC path leaves in Weights the sum of the row's kept entries and in
	// allPositive their sign; the staged entries continue both.
	copy(cs.Weights, prev.Weights)
	cs.allPositive = prev.allPositive
	inPlace := dirty == nil && prev.claimed.CompareAndSwap(false, true)
	if inPlace {
		cs.appendInPlace(prev)
	} else {
		cs.layout(prev, live, dirty)
	}
	for s, sv := range cs.stScore {
		for _, v := range sv {
			cs.Weights[s] += v
			if v <= 0 {
				cs.allPositive = false
			}
		}
	}
	cs.appendSC(prev, live, dirty, inPlace)
	cs.stTraj, cs.stScore = nil, nil
	cs.final = true
}

// appendInPlace is FinalizeAppend's TC side on prev's own arena: a row whose
// room holds its new entries takes them past its end, the others move to
// the arena's tail with rowRoom to spare, and when the tail's spare room
// cannot take the moves every row is laid out again (layout). No entry prev
// reads is written: rooms and the tail lie past prev's row ends.
func (cs *CoverSets) appendInPlace(prev *CoverSets) {
	n := len(cs.Weights)
	need := 0
	for s := 0; s < n; s++ {
		if k := len(cs.stTraj[s]); k > int(prev.tcCap[s]-prev.tcEnd[s]) {
			l := int(prev.tcEnd[s]-prev.tcOff[s]) + k
			need += l + rowRoom(l)
		}
	}
	used := len(prev.tcTraj)
	if need > cap(prev.tcTraj)-used || used+need > math.MaxInt32 {
		cs.layout(prev, nil, nil)
		return
	}
	rows := make([]int32, 3*n)
	cs.tcOff, cs.tcEnd, cs.tcCap = rows[:n:n], rows[n:2*n:2*n], rows[2*n:]
	copy(cs.tcOff, prev.tcOff[:n])
	copy(cs.tcEnd, prev.tcEnd)
	copy(cs.tcCap, prev.tcCap)
	tr, sv := prev.tcTraj[:used+need], prev.tcScore[:used+need]
	tail := int32(used)
	cs.pairs = prev.pairs
	for s := 0; s < n; s++ {
		st, ss := cs.stTraj[s], cs.stScore[s]
		if len(st) == 0 {
			continue
		}
		if k := int32(len(st)); k > cs.tcCap[s]-cs.tcEnd[s] {
			lo, hi := cs.tcOff[s], cs.tcEnd[s]
			copy(tr[tail:], tr[lo:hi])
			copy(sv[tail:], sv[lo:hi])
			l := hi - lo + k
			cs.tcOff[s], cs.tcEnd[s] = tail, tail+hi-lo
			cs.tcCap[s] = tail + l + int32(rowRoom(int(l)))
			tail = cs.tcCap[s]
		}
		copy(tr[cs.tcEnd[s]:], st)
		copy(sv[cs.tcEnd[s]:], ss)
		cs.tcEnd[s] += int32(len(st))
		cs.pairs += len(st)
	}
	cs.tcTraj, cs.tcScore = tr[:tail], sv[:tail]
}

// layout is FinalizeAppend's TC side in a fresh arena, taken when prev
// cannot be grown in place (its room is claimed, or a row lists a dead
// trajectory) or when appendInPlace finds the arena full. Every row — prev's
// entries, entry by entry where dirty marks a row listing a dead trajectory,
// then the staged ones — goes in with rowRoom to spare, and the arena keeps
// as much spare room again for later moves, so the next window appends in
// place. A dirty row's weight restarts from its surviving entries. The
// layout drops dead entries and the dead spans of rows moved since the last
// one.
func (cs *CoverSets) layout(prev *CoverSets, live, dirty []bool) {
	n := len(cs.Weights)
	bound, spare := 0, 0 // the arena without dropped entries, and its spare
	for s := 0; s < n; s++ {
		l := int(prev.tcEnd[s]-prev.tcOff[s]) + len(cs.stTraj[s])
		bound += l + rowRoom(l)
		spare += rowRoom(l)
	}
	if bound > math.MaxInt32 {
		panic(fmt.Sprintf("tops: %d covering pairs with room overflow the int32 offset table", bound))
	}
	spare = min(spare, math.MaxInt32-bound)
	if !cs.allPositive && dirty != nil {
		// The entries that made prev non-positive may be the dropped ones.
		cs.allPositive = true
		for s := 0; s < n && cs.allPositive; s++ {
			for i := prev.tcOff[s]; i < prev.tcEnd[s]; i++ {
				if live[prev.tcTraj[i]] && prev.tcScore[i] <= 0 {
					cs.allPositive = false
					break
				}
			}
		}
	}
	rows := make([]int32, 3*n)
	cs.tcOff, cs.tcEnd, cs.tcCap = rows[:n:n], rows[n:2*n:2*n], rows[2*n:]
	tr := make([]int32, bound, bound+spare)
	sv := make([]float64, bound, bound+spare)
	off := int32(0)
	for s := 0; s < n; s++ {
		cs.tcOff[s] = off
		lo, hi := prev.tcOff[s], prev.tcEnd[s]
		if dirty != nil && dirty[s] {
			var w float64
			for i := lo; i < hi; i++ {
				if t := prev.tcTraj[i]; live[t] {
					tr[off], sv[off] = t, prev.tcScore[i]
					w += prev.tcScore[i]
					off++
				}
			}
			cs.Weights[s] = w
		} else {
			copy(tr[off:], prev.tcTraj[lo:hi])
			copy(sv[off:], prev.tcScore[lo:hi])
			off += hi - lo
		}
		copy(tr[off:], cs.stTraj[s])
		copy(sv[off:], cs.stScore[s])
		off += int32(len(cs.stTraj[s]))
		cs.tcEnd[s] = off
		cs.pairs += int(off - cs.tcOff[s])
		off += int32(rowRoom(int(off - cs.tcOff[s])))
		cs.tcCap[s] = off
	}
	cs.tcTraj, cs.tcScore = tr[:off], sv[:off]
}

// appendSC is FinalizeAppend's SC side: prev's lists for the trajectories
// below prev.M (emptied where they died), then the new trajectories' lists
// filled in ascending site order as Finalize does. When nothing prev lists
// died, prev's lists stay as they are and the new ones follow them: in
// prev's own arrays while their capacity lasts, if the caller holds prev's
// claim (inPlace), else in copies.
func (cs *CoverSets) appendSC(prev *CoverSets, live, dirty []bool, inPlace bool) {
	n, base := len(cs.Weights), prev.M
	counts := make([]int32, cs.M-base)
	for s := 0; s < n; s++ {
		for _, t := range cs.stTraj[s] {
			counts[t-int32(base)]++
		}
	}
	var acc int32
	if dirty == nil {
		cs.scOff = extend(prev.scOff, cs.M-base, inPlace)
		acc = prev.scOff[base]
	} else {
		cs.scOff = make([]int32, cs.M+1)
		for t := 0; t < base; t++ {
			if live[t] {
				acc += prev.scOff[t+1] - prev.scOff[t]
			}
			cs.scOff[t+1] = acc
		}
	}
	// Only the offsets past base are written: scOff[base] may be prev's.
	for t := base; t < cs.M; t++ {
		acc += counts[t-base]
		cs.scOff[t+1] = acc
	}
	if dirty == nil {
		grown := int(acc - prev.scOff[base])
		cs.scSite = extend(prev.scSite, grown, inPlace)
		cs.scScore = extend(prev.scScore, grown, inPlace)
	} else {
		cs.scSite = make([]int32, acc)
		cs.scScore = make([]float64, acc)
		// Copy each run of consecutive live trajectories as one block.
		for t := 0; t < base; {
			if !live[t] {
				t++
				continue
			}
			run := t
			for t < base && live[t] {
				t++
			}
			lo, hi := prev.scOff[run], prev.scOff[t]
			copy(cs.scSite[cs.scOff[run]:], prev.scSite[lo:hi])
			copy(cs.scScore[cs.scOff[run]:], prev.scScore[lo:hi])
		}
	}
	next := counts // reuse as write cursors
	for t := base; t < cs.M; t++ {
		next[t-base] = cs.scOff[t]
	}
	for s := 0; s < n; s++ {
		for i, t := range cs.stTraj[s] {
			j := next[t-int32(base)]
			next[t-int32(base)]++
			cs.scSite[j] = int32(s)
			cs.scScore[j] = cs.stScore[s][i]
		}
	}
}

// extend returns a lengthened by k elements. Its new elements are the
// caller's to write: with inPlace (the caller holds the claim on a's owner,
// and no holder of a reads past its length) they lie in a's own array while
// its capacity lasts; otherwise in a new array with as much again to spare.
func extend[T int32 | float64](a []T, k int, inPlace bool) []T {
	if l := len(a) + k; inPlace && l <= cap(a) {
		return a[:l]
	}
	b := make([]T, len(a)+k, 2*(len(a)+k))
	copy(b, a)
	return b
}

func (cs *CoverSets) ensure() {
	if !cs.final {
		cs.Finalize()
	}
}

// TC returns site s's trajectory list as parallel id/score slices. The
// slices are views into the flat arrays: zero-copy, read-only, and capped
// at the row's end, so an append cannot reach the row's room.
func (cs *CoverSets) TC(s int32) ([]int32, []float64) {
	cs.ensure()
	lo, hi := cs.tcOff[s], cs.tcEnd[s]
	return cs.tcTraj[lo:hi:hi], cs.tcScore[lo:hi:hi]
}

// SC returns trajectory t's covering-site list as parallel id/score slices
// (ascending site id). The slices are views into the flat arrays.
func (cs *CoverSets) SC(t int32) ([]int32, []float64) {
	cs.ensure()
	lo, hi := cs.scOff[t], cs.scOff[t+1]
	return cs.scSite[lo:hi:hi], cs.scScore[lo:hi:hi]
}

// TCLen returns |TC(s)| without materializing the lists.
func (cs *CoverSets) TCLen(s int32) int {
	if cs.final {
		return int(cs.tcEnd[s] - cs.tcOff[s])
	}
	return len(cs.stTraj[s])
}

// SCLen returns |SC(t)|.
func (cs *CoverSets) SCLen(t int32) int {
	cs.ensure()
	return int(cs.scOff[t+1] - cs.scOff[t])
}

// AllPositiveScores reports whether every stored score is > 0 — the
// precondition for seeding Algorithm 1's marginals straight from Weights.
func (cs *CoverSets) AllPositiveScores() bool {
	cs.ensure()
	return cs.allPositive
}

// Pairs returns the total number of (site, trajectory) covering pairs.
func (cs *CoverSets) Pairs() int {
	if cs.final {
		return cs.pairs
	}
	total := 0
	for s := range cs.stTraj {
		total += len(cs.stTraj[s])
	}
	return total
}

// MemoryBytes is the resident size of the covering sets: the arrays the
// cover retains, spare capacity included. Table 9 of the paper tracks
// exactly this growth with τ. A compactly laid-out entry is 12 bytes (int32
// id + float64 score) per direction, plus the offset tables and weights;
// a cover FinalizeAppend built also counts its rows' room, the dead spans
// of moved rows, its arenas' spare capacity and its separate row ends. Covers
// grown from one another share their arenas, and each counts them whole.
func (cs *CoverSets) MemoryBytes() int64 {
	cs.ensure()
	ints := cap(cs.tcTraj) + cap(cs.scSite) + cap(cs.tcOff) + cap(cs.scOff)
	if len(cs.tcOff) == len(cs.Weights) { // rows with room: tcEnd, tcCap apart
		ints += cap(cs.tcEnd) + cap(cs.tcCap)
	}
	floats := cap(cs.tcScore) + cap(cs.scScore) + cap(cs.Weights)
	return int64(ints)*4 + int64(floats)*8
}

// BuildCoverSets evaluates the preference function against the distance
// index and materializes TC, SC and the site weights for a query. It
// requires τ <= MaxDetourKm of the index: beyond that the index has no
// information, mirroring the paper's pre-computation horizon.
func BuildCoverSets(idx *DistanceIndex, pref Preference) (*CoverSets, error) {
	if err := pref.Validate(); err != nil {
		return nil, err
	}
	tau := pref.Tau
	if !math.IsInf(tau, 1) && tau > idx.MaxDetourKm {
		return nil, fmt.Errorf("tops: τ = %v exceeds index horizon %v km", tau, idx.MaxDetourKm)
	}
	cs := NewCoverSets(idx.inst.N(), idx.inst.M())
	for s := range idx.sitePairs {
		for _, p := range idx.sitePairs[s] {
			if p.Dr > tau {
				break // lists are sorted by detour: prefix scan
			}
			score := pref.Score(p.Dr)
			if score == 0 && pref.F == nil {
				continue
			}
			cs.AddPair(int32(s), int32(p.Traj), score)
		}
	}
	cs.Finalize()
	return cs, nil
}

// EvaluateSelection computes the exact utility and covered-trajectory count
// of an arbitrary site selection against the cover sets.
func EvaluateSelection(cs *CoverSets, selected []SiteID) (float64, int) {
	util := make(map[int32]float64, 256)
	for _, s := range selected {
		trajs, scores := cs.TC(int32(s))
		for i, t := range trajs {
			if scores[i] > util[t] {
				util[t] = scores[i]
			}
		}
	}
	var total float64
	covered := 0
	for _, u := range util {
		total += u
		if u > 0 {
			covered++
		}
	}
	return total, covered
}
