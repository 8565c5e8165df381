package shard

import (
	"context"
	"strings"
	"testing"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// TestSiteMirrorTracksSingleIndexIDs replays a site history through the
// mirror and through a single-shard engine (whose index renumbers its
// instance's site list in place): dense ids must agree at every step.
func TestSiteMirrorTracksSingleIndexIDs(t *testing.T) {
	inst, _ := buildFixture(t, 641)
	eng := singleEngine(t, inst)
	m := NewSiteMirror(inst.Sites)
	check := func(label string) {
		t.Helper()
		if len(m.Sites()) != len(inst.Sites) {
			t.Fatalf("%s: mirror holds %d sites, instance %d", label, len(m.Sites()), len(inst.Sites))
		}
		for i, v := range inst.Sites {
			if m.Sites()[i] != v || m.ID(v) != tops.SiteID(i) {
				t.Fatalf("%s: dense id %d is node %d in the instance, node %d (id %d) in the mirror", label, i, v, m.Sites()[i], m.ID(v))
			}
		}
	}
	check("seeded")
	first, mid, last := inst.Sites[0], inst.Sites[40], inst.Sites[len(inst.Sites)-1]
	for _, v := range []roadnet.NodeID{mid, last, first} {
		if err := eng.DeleteSite(v); err != nil {
			t.Fatal(err)
		}
		m.Delete(v)
		check("after a delete")
		if m.ID(v) != tops.InvalidSiteID {
			t.Fatalf("deleted node %d still has id %d", v, m.ID(v))
		}
	}
	m.Delete(mid) // absent: no-op
	for _, v := range []roadnet.NodeID{last, mid} {
		if err := eng.AddSite(v); err != nil {
			t.Fatal(err)
		}
		m.Add(v)
		check("after an add")
	}
	m.Add(mid) // present: no-op
	check("after the no-ops")
}

// metaConn is a member that only reports its metadata.
type metaConn struct {
	Conn
	meta MemberMeta
}

func (c metaConn) Meta(context.Context) (MemberMeta, error) { return c.meta, nil }

func TestLadderAgreementAndDerivation(t *testing.T) {
	a := Ladder{TauMin: 0.4, TauMax: 6.4, Gamma: 0.75, Rungs: 11}
	b := a
	b.Rungs = 10
	meta := func(j int, l Ladder) MemberMeta {
		return MemberMeta{Shards: 3, Index: j, Partitioner: PartitionRule, Ladder: l}
	}
	topology := func(ms ...MemberMeta) (*Sharded, error) {
		conns := make([]Conn, len(ms))
		for j, m := range ms {
			conns[j] = metaConn{meta: m}
		}
		return New(context.Background(), conns)
	}
	s, err := topology(meta(0, a), meta(1, a), meta(2, a))
	if err != nil {
		t.Fatalf("agreeing members rejected: %v", err)
	}
	_, err = topology(meta(0, a), meta(1, a), meta(2, b))
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "rungs=10") {
		t.Fatalf("disagreeing ladder reported as %v, want shard 2 and its rungs named", err)
	}
	// Members that agree on another partition rule (a build that still had
	// the grid partitioner) are refused too: the core routes by Of alone.
	grid := func(j int) MemberMeta { m := meta(j, a); m.Partitioner = "grid"; return m }
	_, err = topology(grid(0), grid(1), grid(2))
	if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), `"grid"`) {
		t.Fatalf("a grid topology reported as %v, want shard 0 and its rule named", err)
	}
	// The same check guards a re-point: only shard 1 of this very topology
	// may stand in for shard 1.
	if err := s.CheckMember(1, meta(1, a)); err != nil {
		t.Fatalf("shard 1's twin refused: %v", err)
	}
	for name, m := range map[string]MemberMeta{
		"another position":    meta(2, a),
		"another shard count": {Shards: 2, Index: 1, Partitioner: PartitionRule, Ladder: a},
		"another partitioner": grid(1),
		"another ladder":      meta(1, b),
	} {
		if err := s.CheckMember(1, m); err == nil {
			t.Errorf("%s accepted as shard 1", name)
		}
	}

	// A zero range derives from the FULL site set; explicit bounds stand.
	inst, _ := buildFixture(t, 641)
	tmin, tmax := core.EstimateTauRange(inst)
	var derived core.Options
	if err := deriveLadderRange(inst, &derived); err != nil || derived.TauMin != tmin || derived.TauMax != tmax {
		t.Fatalf("derived range [%v, %v) (%v), want [%v, %v)", derived.TauMin, derived.TauMax, err, tmin, tmax)
	}
	half := core.Options{TauMax: tmax * 2}
	if err := deriveLadderRange(inst, &half); err != nil || half.TauMin != tmin || half.TauMax != tmax*2 {
		t.Fatalf("half-explicit range [%v, %v) (%v)", half.TauMin, half.TauMax, err)
	}
	if err := deriveLadderRange(inst, &core.Options{TauMin: 2, TauMax: 1}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestWirePrefOfRoundTrips: the core lowers each query's preference to the
// wire form its members re-lower, so the pair must give back the very
// function — every family, λ included — or members would fill and cache
// covers under another fingerprint. A preference with no wire form is
// refused, not approximated.
func TestWirePrefOfRoundTrips(t *testing.T) {
	for _, pref := range []tops.Preference{
		tops.Binary(0.8), tops.Linear(1.3), tops.ConvexQuadratic(2.2),
		tops.ExpDecay(1.1, 1), tops.ExpDecay(0.9, 0.7), tops.ExpDecay(3.3, 1.0/3),
	} {
		wp, err := WirePrefOf(pref)
		if err != nil {
			t.Fatalf("%s: %v", pref.Name, err)
		}
		back, err := wp.Preference()
		if err != nil {
			t.Fatalf("%s: %+v does not re-lower: %v", pref.Name, wp, err)
		}
		if core.PrefFingerprint(back) != core.PrefFingerprint(pref) || back.Name != pref.Name {
			t.Errorf("%s τ=%v: re-lowered to %s τ=%v λ=%v", pref.Name, pref.Tau, back.Name, back.Tau, back.Lambda)
		}
	}
	for _, pref := range []tops.Preference{tops.NegativeDistance(), {Name: "custom", Tau: 1, F: func(d float64) float64 { return 1 - d }}} {
		if wp, err := WirePrefOf(pref); err == nil {
			t.Errorf("%s lowered to %+v", pref.Name, wp)
		}
	}
}
