package shard

import (
	"fmt"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// The member surface's wire types, and the round state of the gather. A
// query ships covers, not rounds: the routing core asks every owning
// member for its masked cover in one CoverRequest (POST /v1/shard/cover
// across processes), each member answers with the cover (in the binary
// layout of codec.go on the wire), and the core runs the gather (Answer,
// gather.go) over them. The codec carries every float64 as its bits and
// every row in the member's order, so a routed answer is
// float-op-for-float-op identical to the single-process engine's.

// WirePref is a preference in wire form: the serving layer's (name, τ, λ)
// triple, re-lowered to a tops.Preference on the receiving side by the
// function the /v1/query decoder uses.
type WirePref struct {
	Name   string  `json:"name"`
	Tau    float64 `json:"tau"`
	Lambda float64 `json:"lambda,omitempty"`
}

// Preference lowers the wire form.
func (w WirePref) Preference() (tops.Preference, error) {
	return tops.PreferenceByName(w.Name, w.Tau, w.Lambda)
}

// wireNames maps the preference constructors' names to the wire names
// tops.PreferenceByName lowers back to them.
var wireNames = map[string]string{"binary": "binary", "linear": "linear", "convex-quadratic": "convex", "exp-decay": "exp"}

// WirePrefOf is the inverse of Preference for the four wire families:
// re-lowered, it yields the same function (same τ, same λ, same cover-cache
// fingerprint). A preference built any other way has no wire form.
func WirePrefOf(pref tops.Preference) (WirePref, error) {
	name, ok := wireNames[pref.Name]
	if !ok {
		return WirePref{}, fmt.Errorf("shard: preference %q has no wire form", pref.Name)
	}
	return WirePref{Name: name, Tau: pref.Tau, Lambda: pref.Lambda}, nil
}

// CoverRequest asks a member for its masked cover of one query
// (POST /v1/shard/cover): the ladder instance serving the query's τ, the
// preference in wire form, and the clusters this shard owns (ascending).
type CoverRequest struct {
	P    int              `json:"p"`
	Pref WirePref         `json:"pref"`
	Mask []core.ClusterID `json:"mask"`
}

// UtilDelta is one trajectory's utility improvement from a selection
// round, broadcast from the gather to the sessions.
type UtilDelta struct {
	Traj int32
	OldU float64
	NewU float64
}

// RoundReply is a session's answer to one round: its current local argmax
// candidate (nil once every owned representative is selected) and the
// shard cover's trajectory universe size.
type RoundReply struct {
	// M is the shard cover's trajectory count; on the first round the
	// gather sizes its utility vector at the max over shards.
	M    int
	Cand *Candidate
}

// Candidate is one session's per-round argmax together with its TC list,
// so the gather can apply a winning candidate without another round.
type Candidate struct {
	GI     int32
	Marg   float64
	Weight float64
	// Trajs/Scores are the candidate's TC list (trajectory ids are global:
	// every shard replicates the trajectory store).
	Trajs  []int32
	Scores []float64
}

// MemberMeta is GET /v1/shard/meta: everything the router needs to adopt
// a shard process — topology parameters it must verify agree across
// members, the ladder parameters that make instance selection local
// (core.InstanceForTau), and the site lists that seed the router's global
// dense-id mirror.
type MemberMeta struct {
	Shards      int    `json:"shards"`
	Index       int    `json:"index"`
	Partitioner string `json:"partitioner"`
	Ladder
	// Sites is this shard's live site list in its own dense order.
	Sites []roadnet.NodeID `json:"sites"`
	// InitialSites is the full global site order the member was built
	// from, when it still knows it (a member recovered from a checkpoint
	// does not). All members of one build report the same list; the router
	// seeds its dense-id mirror from it so SiteIDs match the single-process
	// engine's.
	InitialSites []roadnet.NodeID `json:"initial_sites,omitempty"`
	LSN          uint64           `json:"lsn"`
	Epoch        uint64           `json:"epoch"`
}

// The round arithmetic: the float loops the sessions and the coordinator
// run.

// seedLocalMarginals fills one shard's round-0 marginals: each owned
// representative's initial marginal is its TC scores summed left to right
// (the utility vector is all zeros before the first selection, so each
// positive score contributes exactly itself — the same float sequence as
// Algorithm 1's first iteration). Non-winner slots (g2l < 0) are marked
// permanently selected so the argmax and delta loops never read them.
func seedLocalMarginals(cs *tops.CoverSets, g2l []int32, marg []float64, selected []bool) {
	if cs.AllPositiveScores() {
		// The initial marginal of every local site is bit-identical to its
		// weight (the same left-to-right sum) — one copy instead of an
		// O(pairs) scan. Non-winner slots keep a junk marginal but are
		// permanently selected, so they are never read.
		copy(marg, cs.Weights)
		for li := range g2l {
			if g2l[li] < 0 {
				selected[li] = true
			}
		}
		return
	}
	for li := range g2l {
		if g2l[li] < 0 {
			// Not a current winner (possible only under concurrent
			// mutation): never a candidate.
			selected[li] = true
			continue
		}
		var m float64
		trajs, scores := cs.TC(int32(li))
		for i := range trajs {
			if g := scores[i]; g > 0 { // scores[i] - util[tr] with util ≡ 0
				m += g
			}
		}
		marg[li] = m
	}
}

// applyWinnerDeltas absorbs the previous round's winner into one shard's
// marginals — the exact update loop of Algorithm 1 lines 11–17, restricted
// to the sites this shard owns. Stale deltas also land in selected (and
// non-winner) slots: those marginals are never read again, and dropping
// the selected[li] load removes a random byte access per covering pair.
func applyWinnerDeltas(cs *tops.CoverSets, marg []float64, deltas []UtilDelta) {
	for _, d := range deltas {
		if int(d.Traj) >= cs.M {
			continue
		}
		sites, scores := cs.SC(d.Traj)
		scores = scores[:len(sites)]
		for i, li := range sites {
			oldGain := scores[i] - d.OldU
			if oldGain <= 0 {
				continue
			}
			newGain := scores[i] - d.NewU
			if newGain < 0 {
				newGain = 0
			}
			marg[li] -= oldGain - newGain
		}
	}
}

// argmaxLocal returns the unselected local representative with the
// greatest (marginal, weight, global index) key — tops.GreaterSite's exact
// total order, so reducing per-shard winners stays bit-equal to a global
// argmax — or -1 when every local representative is selected.
func argmaxLocal(cs *tops.CoverSets, g2l []int32, marg []float64, selected []bool) int {
	weights := cs.Weights
	best := -1
	var bm, bw float64
	var bg int
	for li := range marg {
		if selected[li] {
			continue
		}
		m := marg[li]
		if best >= 0 && !tops.GreaterSite(m, weights[li], int(g2l[li]), bm, bw, bg) {
			continue
		}
		best, bm, bw, bg = li, m, weights[li], int(g2l[li])
	}
	return best
}

// ApplyWinner applies a winning representative's TC list to the gather's
// utility vector: trajectories whose score beats their current utility
// move up, each improvement is recorded as a delta (appended into buf),
// and newly covered trajectories are counted. The exact float sequence of
// Algorithm 1's utility update.
func ApplyWinner(util []float64, trajs []int32, scores []float64, buf []UtilDelta) ([]UtilDelta, int) {
	covered := 0
	for i, tr := range trajs {
		oldU := util[tr]
		if scores[i] <= oldU {
			continue
		}
		util[tr] = scores[i]
		if oldU == 0 {
			covered++
		}
		buf = append(buf, UtilDelta{Traj: tr, OldU: oldU, NewU: scores[i]})
	}
	return buf, covered
}
