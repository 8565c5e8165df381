package tops

import (
	"fmt"
	"math"
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
type CoverSets struct {
	// M is the size of the trajectory universe; trajectory ids in TC are
	// indices in [0, M).
	M int
	// Weights[s] is the site weight w_s.
	Weights []float64

	// Finalized CSR arrays: site s's TC list is tcTraj/tcScore[tcOff[s] :
	// tcOff[s+1]], trajectory t's SC list is scSite/scScore[scOff[t] :
	// scOff[t+1]]. SC lists are ordered by ascending site id — the order
	// the former RebuildSC derivation produced, which the greedy's
	// bit-exactness contract relies on only insofar as every SC-driven
	// marginal update touches a distinct site slot (order-independent).
	tcOff   []int32
	tcTraj  []int32
	tcScore []float64
	scOff   []int32
	scSite  []int32
	scScore []float64
	// allPositive records that every stored score is > 0. Algorithm 1's
	// initial marginal of site s is then bit-identical to Weights[s]
	// (both are the same left-to-right sum over the same values), letting
	// the greedy seed its marginals with one O(n) copy instead of an
	// O(pairs) scan.
	allPositive bool
	final       bool

	// Staging: per-site id/score lists before Finalize.
	stTraj  [][]int32
	stScore [][]float64
}

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

// AddPair registers that site s covers trajectory t with the given score.
// Callers are responsible for not adding duplicates. Panics after Finalize.
func (cs *CoverSets) AddPair(s, t int32, score float64) {
	cs.mutable()
	cs.stTraj[s] = append(cs.stTraj[s], t)
	cs.stScore[s] = append(cs.stScore[s], score)
	cs.Weights[s] += score
}

// SetTCArrays installs site s's complete trajectory list wholesale,
// replacing any previous entries and recomputing the site weight. It exists
// for parallel cover builders: workers fill disjoint sites concurrently
// (the slices are borrowed, not copied, until Finalize copies them into the
// flat arrays), then a single Finalize pass seals the structure and derives
// the trajectory-side lists. The caller must not mutate the slices before
// Finalize. Panics after Finalize.
func (cs *CoverSets) SetTCArrays(s int32, trajs []int32, scores []float64) {
	cs.mutable()
	cs.stTraj[s] = trajs[:len(trajs):len(trajs)]
	cs.stScore[s] = scores[:len(scores):len(scores)]
	var w float64
	for _, sc := range scores {
		w += sc
	}
	cs.Weights[s] = w
}

func (cs *CoverSets) mutable() {
	if cs.final {
		panic("tops: CoverSets mutated after Finalize")
	}
}

// Finalize flattens the staged lists into the CSR arrays and derives every
// SC list from TC, releasing the staging storage. It is idempotent; the
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
		for i, t := range tr {
			counts[t]++
			if sv[i] <= 0 {
				allPos = false
			}
		}
		off += int32(len(tr))
	}
	cs.tcOff[n] = off
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
// list stays in ascending site order. The row spans and SC spans prev
// already has are block copies; only rows holding a dead trajectory are
// filtered entry by entry.
func (cs *CoverSets) FinalizeAppend(prev *CoverSets, live []bool) {
	cs.mutable()
	prev.ensure()
	n, base := len(cs.Weights), prev.M
	if prev.N() != n || base > cs.M {
		panic(fmt.Sprintf("tops: cannot append %d sites x %d trajectories onto %d x %d", n, cs.M, prev.N(), base))
	}
	// The trajectories of prev that died, and the rows listing them.
	var dirty []bool
	dropped := 0
	if live != nil {
		for t := 0; t < base; t++ {
			if lo, hi := prev.scOff[t], prev.scOff[t+1]; !live[t] && lo < hi {
				if dirty == nil {
					dirty = make([]bool, n)
				}
				for _, s := range prev.scSite[lo:hi] {
					dirty[s] = true
				}
				dropped += int(hi - lo)
			}
		}
	}
	total := len(prev.tcTraj) - dropped
	for s := range cs.stTraj {
		total += len(cs.stTraj[s])
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("tops: %d covering pairs overflow the int32 offset table", total))
	}

	cs.tcOff = make([]int32, n+1)
	cs.tcTraj = make([]int32, total)
	cs.tcScore = make([]float64, total)
	counts := make([]int32, cs.M-base)
	allPos := prev.allPositive
	if !allPos && dirty != nil {
		// The entries that made prev non-positive may be the dropped ones.
		allPos = true
		for i, t := range prev.tcTraj {
			if live[t] && prev.tcScore[i] <= 0 {
				allPos = false
				break
			}
		}
	}
	off := int32(0)
	for s := 0; s < n; s++ {
		cs.tcOff[s] = off
		lo, hi := prev.tcOff[s], prev.tcOff[s+1]
		w := prev.Weights[s]
		if dirty != nil && dirty[s] {
			w = 0
			for i := lo; i < hi; i++ {
				if t := prev.tcTraj[i]; live[t] {
					cs.tcTraj[off], cs.tcScore[off] = t, prev.tcScore[i]
					w += prev.tcScore[i]
					off++
				}
			}
		} else {
			copy(cs.tcTraj[off:], prev.tcTraj[lo:hi])
			copy(cs.tcScore[off:], prev.tcScore[lo:hi])
			off += hi - lo
		}
		tr, sv := cs.stTraj[s], cs.stScore[s]
		copy(cs.tcTraj[off:], tr)
		copy(cs.tcScore[off:], sv)
		for i, t := range tr {
			counts[t-int32(base)]++
			w += sv[i]
			if sv[i] <= 0 {
				allPos = false
			}
		}
		off += int32(len(tr))
		cs.Weights[s] = w
	}
	cs.tcOff[n] = off
	cs.allPositive = allPos

	// SC side: prev's lists for the trajectories below base (emptied where
	// they died), then the new trajectories' lists filled in ascending site
	// order as Finalize does.
	cs.scOff = make([]int32, cs.M+1)
	var acc int32
	if dirty == nil {
		copy(cs.scOff, prev.scOff)
		acc = prev.scOff[base]
	} else {
		for t := 0; t < base; t++ {
			cs.scOff[t] = acc
			if live[t] {
				acc += prev.scOff[t+1] - prev.scOff[t]
			}
		}
	}
	for t := base; t < cs.M; t++ {
		cs.scOff[t] = acc
		acc += counts[t-base]
	}
	cs.scOff[cs.M] = acc
	cs.scSite = make([]int32, acc)
	cs.scScore = make([]float64, acc)
	if dirty == nil {
		copy(cs.scSite, prev.scSite)
		copy(cs.scScore, prev.scScore)
	} else {
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
	cs.stTraj, cs.stScore = nil, nil
	cs.final = true
}

func (cs *CoverSets) ensure() {
	if !cs.final {
		cs.Finalize()
	}
}

// TC returns site s's trajectory list as parallel id/score slices. The
// slices are views into the flat arrays: zero-copy, read-only.
func (cs *CoverSets) TC(s int32) ([]int32, []float64) {
	cs.ensure()
	lo, hi := cs.tcOff[s], cs.tcOff[s+1]
	return cs.tcTraj[lo:hi], cs.tcScore[lo:hi]
}

// SC returns trajectory t's covering-site list as parallel id/score slices
// (ascending site id). The slices are views into the flat arrays.
func (cs *CoverSets) SC(t int32) ([]int32, []float64) {
	cs.ensure()
	lo, hi := cs.scOff[t], cs.scOff[t+1]
	return cs.scSite[lo:hi], cs.scScore[lo:hi]
}

// TCLen returns |TC(s)| without materializing the lists.
func (cs *CoverSets) TCLen(s int32) int {
	if cs.final {
		return int(cs.tcOff[s+1] - cs.tcOff[s])
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
		return len(cs.tcTraj)
	}
	total := 0
	for s := range cs.stTraj {
		total += len(cs.stTraj[s])
	}
	return total
}

// MemoryBytes estimates the resident size of the covering sets. Table 9 of
// the paper tracks exactly this growth with τ. A CSR entry is 12 bytes
// (int32 id + float64 score) per direction, plus the offset tables and
// weights.
func (cs *CoverSets) MemoryBytes() int64 {
	const entryBytes = 12
	pairs := int64(cs.Pairs())
	offsets := int64(len(cs.Weights)+1+cs.M+1) * 4
	return pairs*2*entryBytes + offsets + int64(len(cs.Weights))*8
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
