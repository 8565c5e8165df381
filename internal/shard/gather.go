package shard

import (
	"context"
	"fmt"

	"netclus/internal/tops"
)

// The distributed greedy's coordinator: the paper's Algorithm 1
// (tops.plainGreedy) restructured as synchronized rounds over per-shard
// sessions, without ever materializing the merged covering structure.
//
// State split:
//
//   - the coordinator owns the per-trajectory utility vector U and the
//     covered count (it holds the winning representative's TC list each
//     round);
//   - each session owns the marginals of its shard's representatives and
//     the local SC lists needed to maintain them.
//
// One round = each session absorbs the previous winner's utility deltas
// into its marginals and reports its local argmax (under the GLOBAL dense
// index tie-break); the coordinator reduces the candidates with the same
// comparator, applies the winner and broadcasts its deltas. Every float64
// operation — the initial marginal sums in TC order, the
// `marg -= oldGain - newGain` updates in the winner's TC order, the
// utility accumulation — replays tops.plainGreedy's op for op, so
// Selected/Utility/Covered carry identical bits. There is one coordinator
// and two transports: shard.Sharded hands it in-process *memberSessions,
// internal/router hands it HTTP handles onto Members' sessions.

// Session is the coordinator's handle on one shard's side of a query.
type Session interface {
	// Step reports the previous round's winner (its global dense index and
	// the utility deltas it caused; -1 and none on the first round) and
	// returns the shard's next candidate. The reply must stay valid until
	// the session's next Step.
	Step(ctx context.Context, winnerGI int32, deltas []UtilDelta) (RoundReply, error)
	// End releases the session. The coordinator calls it exactly once.
	End()
}

// Handle names the shard a session belongs to.
type Handle struct {
	Shard int
	Session
}

// Fan runs fn(0), …, fn(n-1) — one round's per-shard calls — and returns
// when all have. Whether they run concurrently is the handles' owner's
// call: a network hop is worth a goroutine, a microsecond of arithmetic is
// not.
type Fan func(n int, fn func(i int))

// Inline is the Fan of in-process sessions: rounds run on the caller's
// goroutine.
func Inline(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// StepError is a session failure, naming the shard and the round.
type StepError struct {
	Shard int
	Round int
	Err   error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("shard %d, round %d: %v", e.Shard, e.Round, e.Err)
}
func (e *StepError) Unwrap() error { return e.Err }

// Gather is the coordinator's reusable scratch; the zero value is ready.
type Gather struct {
	util    []float64
	deltas  []UtilDelta
	sel     []tops.SiteID
	replies []RoundReply
	errs    []error
}

// Run selects up to k representatives over the open sessions hs and ends
// every session before returning, whatever the outcome. Selected holds
// global dense representative indices and aliases g (valid until g's next
// Run). The reduce is a strict total order over distinct global indices,
// so the answer does not depend on the order of hs.
func (g *Gather) Run(ctx context.Context, k int, hs []Handle, fan Fan) (tops.Result, error) {
	defer func() {
		for _, h := range hs {
			h.End()
		}
	}()
	g.replies = append(g.replies[:0], make([]RoundReply, len(hs))...)
	g.errs = append(g.errs[:0], make([]error, len(hs))...)
	g.deltas = g.deltas[:0]
	res := tops.Result{Selected: g.sel[:0]}
	winnerGI := int32(-1)
	step := func(i int) { g.replies[i], g.errs[i] = hs[i].Step(ctx, winnerGI, g.deltas) }
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return tops.Result{}, err
		}
		fan(len(hs), step)
		for i, err := range g.errs {
			if err != nil {
				return tops.Result{}, &StepError{Shard: hs[i].Shard, Round: round, Err: err}
			}
		}
		if round == 0 {
			// The utility vector spans the widest trajectory id any shard
			// covers.
			m := 0
			for _, r := range g.replies {
				m = max(m, r.M)
			}
			g.util = append(g.util[:0], make([]float64, m)...)
		}
		var win *WireCand
		for _, r := range g.replies {
			if c := r.Cand; c != nil && (win == nil || tops.GreaterSite(c.Marg, c.Weight, int(c.GI), win.Marg, win.Weight, int(win.GI))) {
				win = c
			}
		}
		if win == nil {
			break // every representative selected
		}
		res.Selected = append(res.Selected, tops.SiteID(win.GI))
		res.Utility += win.Marg
		var nc int
		g.deltas, nc = ApplyWinner(g.util, win.Trajs, win.Scores, g.deltas[:0])
		res.Covered += nc
		if len(res.Selected) >= k {
			break // nobody needs the last winner's deltas
		}
		winnerGI = win.GI
	}
	g.sel = res.Selected
	return res, nil
}
