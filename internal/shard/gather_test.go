package shard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"netclus/internal/tops"
)

// Coordinator unit tests over scripted sessions: what Gather.Run promises
// its callers regardless of what sits behind a session — every session
// ended exactly once, the last winner's broadcast skipped, the context
// honoured between rounds, and an answer that does not depend on the order
// the sessions are enumerated in.

// scriptedSession answers round r with script[r] (nothing once the script
// runs out) and records what it was told.
type scriptedSession struct {
	script []*Candidate
	m      int
	onStep func(round int)

	steps   int
	winners []int32
	ends    int
}

func (s *scriptedSession) Step(winnerGI int32, _ []UtilDelta) RoundReply {
	round := s.steps
	s.steps++
	s.winners = append(s.winners, winnerGI)
	if s.onStep != nil {
		s.onStep(round)
	}
	reply := RoundReply{M: s.m}
	if round < len(s.script) {
		reply.Cand = s.script[round]
	}
	return reply
}

func (s *scriptedSession) End() { s.ends++ }

func cand(gi int32, marg float64, trajs ...int32) *Candidate {
	scores := make([]float64, len(trajs))
	for i := range scores {
		scores[i] = 1
	}
	return &Candidate{GI: gi, Marg: marg, Weight: marg, Trajs: trajs, Scores: scores}
}

// script3 is three shards' worth of scripted candidates over 8
// trajectories. Round 0: shard 5 offers the best marginal. Rounds 1 and 2:
// ties on (marginal, weight) across shards, broken toward the higher
// global index as tops.GreaterSite does.
func script3() []*scriptedSession {
	return []*scriptedSession{
		{m: 6, script: []*Candidate{cand(4, 2, 0, 1), cand(4, 2, 0, 1), cand(4, 1, 0, 1)}},
		{m: 8, script: []*Candidate{cand(1, 3, 2, 3, 7), cand(6, 1, 5), cand(6, 1, 5)}},
		{m: 7, script: []*Candidate{cand(8, 2, 1, 6), cand(8, 2, 1, 6), nil}},
	}
}

func sessions(ss []*scriptedSession) []Session {
	out := make([]Session, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func assertEndedOnce(t *testing.T, label string, ss []*scriptedSession) {
	t.Helper()
	for i, s := range ss {
		if s.ends != 1 {
			t.Fatalf("%s: session %d ended %d times, want exactly 1", label, i, s.ends)
		}
	}
}

func TestGatherRoundLoop(t *testing.T) {
	ss := script3()
	var g Gather
	res, err := g.Run(context.Background(), 3, sessions(ss))
	if err != nil {
		t.Fatal(err)
	}
	if want := []tops.SiteID{1, 8, 6}; !reflect.DeepEqual(res.Selected, want) {
		t.Fatalf("selected %v, want %v", res.Selected, want)
	}
	// 3 + 2 + 1: the scripted marginals; covered: {2,3,7} + {1,6} + {5}.
	if res.Utility != 6 || res.Covered != 6 {
		t.Fatalf("utility %v covered %d, want 6 and 6", res.Utility, res.Covered)
	}
	// k selections take k rounds: the last winner is never broadcast.
	if rounds := ss[0].steps; rounds != 3 {
		t.Fatalf("%d rounds for k=3, want 3", rounds)
	}
	for i, s := range ss {
		if want := []int32{-1, 1, 8}; !reflect.DeepEqual(s.winners, want) {
			t.Fatalf("session %d was told winners %v, want %v", i, s.winners, want)
		}
	}
	assertEndedOnce(t, "success", ss)

	// Exhaustion: asking for more than the sessions hold stops when no
	// session has a candidate left.
	ss = script3()
	res, err = g.Run(context.Background(), 10, sessions(ss))
	if err != nil || len(res.Selected) != 3 {
		t.Fatalf("exhausted run: %v, selected %v", err, res.Selected)
	}
	assertEndedOnce(t, "exhausted", ss)
}

func TestGatherContextCancel(t *testing.T) {
	// Canceled before the first round: nothing is stepped, everything is
	// still ended.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ss := script3()
	var g Gather
	if _, err := g.Run(ctx, 3, sessions(ss)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: %v", err)
	}
	assertEndedOnce(t, "pre-canceled", ss)
	if ss[0].steps != 0 {
		t.Fatalf("pre-canceled run stepped %d times", ss[0].steps)
	}

	// Canceled mid-query: the round in flight completes, the next does not
	// start.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	ss = script3()
	ss[2].onStep = func(round int) {
		if round == 1 {
			cancel()
		}
	}
	if _, err := g.Run(ctx, 3, sessions(ss)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-query cancel: %v", err)
	}
	assertEndedOnce(t, "mid-query cancel", ss)
	if ss[0].steps != 2 {
		t.Fatalf("mid-query cancel stepped %d times, want 2", ss[0].steps)
	}
}

func TestGatherHandleOrderInvariance(t *testing.T) {
	var base tops.Result
	for n, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		ss := script3()
		hs := make([]Session, len(perm))
		for i, j := range perm {
			hs[i] = ss[j]
		}
		var g Gather
		res, err := g.Run(context.Background(), 3, hs)
		if err != nil {
			t.Fatal(err)
		}
		res.Selected = append([]tops.SiteID(nil), res.Selected...)
		if n == 0 {
			base = res
		} else if !reflect.DeepEqual(res, base) {
			t.Fatalf("session order %v answered %+v, order 0 1 2 answered %+v", perm, res, base)
		}
	}
}
