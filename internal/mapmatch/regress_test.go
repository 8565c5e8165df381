package mapmatch

import (
	"context"
	"math"
	"testing"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// TestMatchDoesNotMutateInputTrace is the regression test for the thin
// aliasing bug: out := trace.Points[:1] shared the caller's backing array,
// so every append during thinning overwrote the raw trace in place. A
// caller that retained the trace (the ingest pipeline does, for error
// reporting and point accounting) saw it silently corrupted.
func TestMatchDoesNotMutateInputTrace(t *testing.T) {
	city := testCity(t)
	// Spacing chosen so thinning drops interior points: with a dropped
	// point, the aliasing bug shifts every later survivor one slot left
	// inside the caller's array.
	m := NewMatcher(city.Graph, Config{MinPointSpacingKm: 0.5})
	trace := trajectory.GPSTrace{Points: []trajectory.GPSPoint{
		{Pos: geo.Point{X: 1, Y: 1}, Time: 0},
		{Pos: geo.Point{X: 1.01, Y: 1}, Time: 1}, // dropped: 0.01 km from predecessor
		{Pos: geo.Point{X: 2, Y: 1}, Time: 2},
		{Pos: geo.Point{X: 3, Y: 1}, Time: 3},
		{Pos: geo.Point{X: 4, Y: 1}, Time: 4},
	}}
	orig := make([]trajectory.GPSPoint, len(trace.Points))
	copy(orig, trace.Points)

	if _, err := m.Match(trace); err != nil {
		t.Fatalf("Match: %v", err)
	}
	for i, p := range trace.Points {
		if p != orig[i] {
			t.Fatalf("Match mutated input trace at point %d: got %+v, want %+v", i, p, orig[i])
		}
	}
}

// twoComponentGraph builds a network with two disconnected components: a
// long west chain (6 nodes) and a short east chain (2 nodes), 10 km apart.
func twoComponentGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g := roadnet.New(8)
	for i := 0; i < 6; i++ { // west chain: x = 0..5
		g.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < 5; i++ {
		if err := g.AddBidirectional(roadnet.NodeID(i), roadnet.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	e0 := g.AddNode(geo.Point{X: 15, Y: 0}) // east chain: x = 15..16
	e1 := g.AddNode(geo.Point{X: 16, Y: 0})
	if err := g.AddBidirectional(e0, e1, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

// gapTrace runs along twoComponentGraph's west chain, then jumps to the
// disconnected east chain.
var gapTrace = trajectory.GPSTrace{Points: []trajectory.GPSPoint{
	{Pos: geo.Point{X: 0.02, Y: 0.01}, Time: 0},
	{Pos: geo.Point{X: 1.01, Y: -0.02}, Time: 1},
	{Pos: geo.Point{X: 2.0, Y: 0.015}, Time: 2},
	{Pos: geo.Point{X: 3.01, Y: 0.0}, Time: 3},
	{Pos: geo.Point{X: 15.01, Y: 0.01}, Time: 4},
	{Pos: geo.Point{X: 16.0, Y: -0.01}, Time: 5},
}}

// TestMatchSplitsAtUnbridgeableGap is the regression test for the stitch
// contract bug: stitch documented "unbridgeable gaps are skipped" but
// jumped across the gap, handing trajectory.New a disconnected node pair —
// which errored and failed the whole trace. Match must instead split at
// the gap and return the longest connected segment.
func TestMatchSplitsAtUnbridgeableGap(t *testing.T) {
	g := twoComponentGraph(t)
	m := NewMatcher(g, Config{})
	tr, err := m.Match(gapTrace)
	if err != nil {
		t.Fatalf("Match must survive an unbridgeable gap by splitting, got error: %v", err)
	}
	// The west chain carries 4 matched points vs the east chain's 2, so
	// the returned walk must lie entirely on the west component.
	if tr.Len() < 2 {
		t.Fatalf("matched walk too short: %d nodes", tr.Len())
	}
	for _, v := range tr.Nodes {
		if v >= 6 {
			t.Fatalf("matched walk crosses into the disconnected component: node %d in %v", v, tr.Nodes)
		}
	}
}

// TestMatchCtxCancelled checks that a cancelled context aborts matching.
func TestMatchCtxCancelled(t *testing.T) {
	city := testCity(t)
	m := NewMatcher(city.Graph, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trace := trajectory.GPSTrace{Points: []trajectory.GPSPoint{
		{Pos: geo.Point{X: 1, Y: 1}},
		{Pos: geo.Point{X: 2, Y: 1}},
		{Pos: geo.Point{X: 3, Y: 1}},
	}}
	if _, err := m.MatchCtx(ctx, trace); err != context.Canceled {
		t.Fatalf("MatchCtx on cancelled context: got %v, want context.Canceled", err)
	}
}

// TestMatchRejectsNonFinite checks NaN/Inf coordinates error cleanly.
func TestMatchRejectsNonFinite(t *testing.T) {
	city := testCity(t)
	m := NewMatcher(city.Graph, Config{})
	bad := []geo.Point{
		{X: math.NaN(), Y: 1},
		{X: 1, Y: math.Inf(1)},
		{X: math.Inf(-1), Y: math.NaN()},
	}
	for _, p := range bad {
		trace := trajectory.GPSTrace{Points: []trajectory.GPSPoint{{Pos: geo.Point{X: 1, Y: 1}}, {Pos: p}}}
		if _, err := m.Match(trace); err == nil {
			t.Errorf("Match accepted non-finite point %+v", p)
		}
	}
}
