package shard

import (
	"context"
	"sync"
	"time"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// memberSession is one query's per-shard round state: the immutable
// masked-cover snapshot it opened on, the local→global index map, the
// marginals and selection mask the rounds evolve, and the last candidate
// reported (so a step naming it as the winner can mark it selected). It is
// the one implementation of the shard side of the round protocol: a
// Member keeps them in a qid table behind /v1/shard/query/, and Sharded
// hands them to the coordinator directly as Sessions.
type memberSession struct {
	cs       *tops.CoverSets
	g2l      []int32 // local rep index -> global dense index, -1 = not a winner
	marg     []float64
	selected []bool
	lastLI   int // local index of the last reported candidate; -1 none
	cand     WireCand
	pooled   bool

	// Member-table bookkeeping; untouched by an in-process gather, whose
	// sessions have exactly one caller.
	mu      sync.Mutex
	touched time.Time
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
// session's buffers through End; a session some other goroutine may still
// reach after End (a Member's) must not be pooled.
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

// step advances the session one round: mark our last candidate selected if
// it won, absorb the winner's utility deltas, and report the new local
// argmax with its TC list (aliasing the cover's arrays, so the gather can
// apply a win without another round trip) — or false when every owned
// representative is selected.
func (ses *memberSession) step(winnerGI int32, deltas []UtilDelta) (WireCand, bool) {
	if ses.lastLI >= 0 && ses.g2l[ses.lastLI] == winnerGI {
		ses.selected[ses.lastLI] = true
	}
	applyWinnerDeltas(ses.cs, ses.marg, deltas)
	best := argmaxLocal(ses.cs, ses.g2l, ses.marg, ses.selected)
	ses.lastLI = best
	if best < 0 {
		return WireCand{}, false
	}
	trajs, scores := ses.cs.TC(int32(best))
	return WireCand{GI: ses.g2l[best], Marg: ses.marg[best], Weight: ses.cs.Weights[best], Trajs: trajs, Scores: scores}, true
}

// Step implements Session for the in-process gather. The reply's candidate
// points into the session, valid until the next Step.
func (ses *memberSession) Step(_ context.Context, winnerGI int32, deltas []UtilDelta) (RoundReply, error) {
	reply := RoundReply{M: ses.cs.M}
	if c, ok := ses.step(winnerGI, deltas); ok {
		ses.cand = c
		reply.Cand = &ses.cand
	}
	return reply, nil
}

// End implements Session: detach from the cover and recycle the buffers.
func (ses *memberSession) End() {
	ses.cs, ses.cand = nil, WireCand{}
	if ses.pooled {
		sessionPool.Put(ses)
	}
}
