package shard

import (
	"sync"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// memberSession is one query's per-shard round state: the immutable
// masked-cover snapshot it opened on, the local→global index map, the
// marginals and selection mask the rounds evolve, and the last candidate
// reported (so a step naming it as the winner can mark it selected). It is
// the one implementation of the shard side of the rounds: Answer opens one
// per owning shard's cover, whichever process the cover was filled in.
type memberSession struct {
	cs       *tops.CoverSets
	g2l      []int32 // local rep index -> global dense index, -1 = not a winner
	marg     []float64
	selected []bool
	lastLI   int // local index of the last reported candidate; -1 none
	cand     Candidate
	pooled   bool
}

var sessionPool = sync.Pool{New: func() any { return &memberSession{pooled: true} }}

// localToGlobal merges a masked cover's returned clusters against the mask
// they were asked for (both ascending) into the local→global index map. A
// returned cluster the mask does not name (possible only under concurrent
// mutation) is not a winner: -1.
func localToGlobal(dst []int32, reps, mask []core.ClusterID, maskGI []int32) []int32 {
	dst = dst[:0]
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

// openSession starts one shard's round state over its masked cover: cs and
// reps as CoverMasked returned them for mask, maskGI the global dense index
// of each mask entry. The marginals are seeded, so the first step (with no
// winner to absorb) reports the round-0 candidate. pooled recycles the
// session's buffers through End.
func openSession(cs *tops.CoverSets, reps, mask []core.ClusterID, maskGI []int32, pooled bool) *memberSession {
	var ses *memberSession
	if pooled {
		ses = sessionPool.Get().(*memberSession)
	} else {
		ses = new(memberSession)
	}
	n := len(reps)
	ses.cs = cs
	ses.g2l = localToGlobal(ses.g2l, reps, mask, maskGI)
	if cap(ses.marg) < n {
		ses.marg = make([]float64, n)
	}
	ses.marg = ses.marg[:n]
	if cap(ses.selected) < n {
		ses.selected = make([]bool, n)
	}
	ses.selected = ses.selected[:n]
	clear(ses.selected)
	ses.lastLI = -1
	seedLocalMarginals(cs, ses.g2l, ses.marg, ses.selected)
	return ses
}

// Step implements Session: mark our last candidate selected if it won,
// absorb the winner's utility deltas, and report the new local argmax with
// its TC list (aliasing the cover's arrays, so the gather can apply a win
// without another round) — or no candidate when every owned
// representative is selected. The reply points into the session, valid
// until the next Step.
func (ses *memberSession) Step(winnerGI int32, deltas []UtilDelta) RoundReply {
	if ses.lastLI >= 0 && ses.g2l[ses.lastLI] == winnerGI {
		ses.selected[ses.lastLI] = true
	}
	applyWinnerDeltas(ses.cs, ses.marg, deltas)
	best := argmaxLocal(ses.cs, ses.g2l, ses.marg, ses.selected)
	ses.lastLI = best
	reply := RoundReply{M: ses.cs.M}
	if best >= 0 {
		trajs, scores := ses.cs.TC(int32(best))
		ses.cand = Candidate{GI: ses.g2l[best], Marg: ses.marg[best], Weight: ses.cs.Weights[best], Trajs: trajs, Scores: scores}
		reply.Cand = &ses.cand
	}
	return reply
}

// End implements Session: detach from the cover and recycle the buffers.
func (ses *memberSession) End() {
	ses.cs, ses.cand = nil, Candidate{}
	if ses.pooled {
		sessionPool.Put(ses)
	}
}
