package shard

import (
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

func TestLadderAgreementAndDerivation(t *testing.T) {
	a := Ladder{TauMin: 0.4, TauMax: 6.4, Gamma: 0.75, Rungs: 11}
	b := a
	b.Rungs = 10
	if err := CheckLadders([]Ladder{a, a, a}); err != nil {
		t.Fatalf("agreeing ladders rejected: %v", err)
	}
	err := CheckLadders([]Ladder{a, a, b})
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "rungs=10") {
		t.Fatalf("disagreeing ladder reported as %v, want shard 2 and its rungs named", err)
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
