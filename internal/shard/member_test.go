package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// Direct Member tests: the per-shard half every router topology runs,
// driven by the coordinator without HTTP in between. The bar is the same
// bit-exact one the in-process oracles hold shard.Sharded to.

// buildMembers builds every member of an n-shard topology, each over its
// own copy of the seed's fixture.
func buildMembers(t testing.TB, seed int64, n int) []*Member {
	t.Helper()
	ms := make([]*Member, n)
	for j := range ms {
		inst, _ := buildFixture(t, seed)
		m, err := BuildMember(inst, j, Options{Shards: n, Partitioner: HashPartitioner, Build: fixtureBuild})
		if err != nil {
			t.Fatal(err)
		}
		ms[j] = m
	}
	return ms
}

// directSession is a Session over a Member called directly: the router's
// memberHandle minus the wire.
type directSession struct {
	m     *Member
	start *StartRequest
	qid   string
}

func (d *directSession) Step(ctx context.Context, winnerGI int32, deltas []UtilDelta) (RoundReply, error) {
	var reply *RoundReply
	var err error
	if req := d.start; req != nil {
		d.start = nil
		reply, err = d.m.Start(ctx, req)
	} else {
		reply, err = d.m.Step(&StepRequest{QID: d.qid, WinnerGI: winnerGI, Deltas: deltas})
	}
	if err != nil {
		return RoundReply{}, err
	}
	return *reply, nil
}

func (d *directSession) End() { d.m.End(d.qid) }

// memberSet is a gather tier over in-process members: what internal/router
// is over HTTP ones.
type memberSet struct {
	ms    []*Member
	sites *SiteMirror
	seq   int
}

func newMemberSet(ms []*Member) *memberSet {
	return &memberSet{ms: ms, sites: NewSiteMirror(ms[0].Meta().InitialSites)}
}

func (s *memberSet) query(t testing.TB, q core.QueryOptions, wp WirePref) *core.QueryResult {
	t.Helper()
	l := s.ms[0].Meta().Ladder
	p := core.InstanceForTau(l.TauMin, l.Gamma, l.Rungs, q.Pref.Tau)
	rows := make([][]core.RepInfo, len(s.ms))
	for j, m := range s.ms {
		var err error
		if rows[j], err = m.Reps(p); err != nil {
			t.Fatal(err)
		}
	}
	own := ReduceOwnership(rows)
	s.seq++
	qid := fmt.Sprintf("t%d", s.seq)
	var hs []Handle
	for j, m := range s.ms {
		if len(own.Masks[j]) > 0 {
			hs = append(hs, Handle{Shard: j, Session: &directSession{m: m, qid: qid,
				start: &StartRequest{QID: qid, P: p, Pref: wp, Mask: own.Masks[j], MaskGlobal: own.MasksGI[j]}}})
		}
	}
	var g Gather
	res, err := g.Run(context.Background(), min(q.K, len(own.Winners)), hs, Inline)
	if err != nil {
		t.Fatal(err)
	}
	out := &core.QueryResult{
		EstimatedUtility: res.Utility, EstimatedCovered: res.Covered,
		InstanceUsed: p, NumRepresentatives: len(own.Winners),
	}
	for _, gi := range res.Selected {
		node := own.Winners[gi].Node
		out.Sites = append(out.Sites, node)
		out.SiteIDs = append(out.SiteIDs, s.sites.ID(node))
	}
	for j, m := range s.ms {
		if n := len(m.sessions); n != 0 {
			t.Fatalf("member %d holds %d sessions after the query ended", j, n)
		}
	}
	return out
}

// wirePrefOf is the wire form of the queryGrid's preferences.
func wirePrefOf(t testing.TB, pref tops.Preference) WirePref {
	t.Helper()
	name, ok := map[string]string{"binary": "binary", "linear": "linear", "convex-quadratic": "convex"}[pref.Name]
	if !ok {
		t.Fatalf("no wire name for preference %q", pref.Name)
	}
	return WirePref{Name: name, Tau: pref.Tau}
}

func TestMembersMatchShardedAndEngine(t *testing.T) {
	for _, n := range []int{2, 3} {
		const seed = 613
		refInst, _ := buildFixture(t, seed)
		shInst, _ := buildFixture(t, seed)
		ref := singleEngine(t, refInst)
		sharded := shardedEngine(t, shInst, n, HashPartitioner)
		set := newMemberSet(buildMembers(t, seed, n))
		ctx := context.Background()

		check := func(label string) {
			t.Helper()
			for _, q := range queryGrid() {
				got := set.query(t, q, wirePrefOf(t, q.Pref))
				wantSharded, err := sharded.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, fmt.Sprintf("%d members vs sharded, %s", n, label), got, wantSharded)
				wantRef, err := ref.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, fmt.Sprintf("%d members vs engine, %s", n, label), got, wantRef)
			}
		}
		check("as built")

		// One site flip routed the way the router routes it: to the owning
		// member only, which must be the only one that accepts it.
		v := refInst.Sites[3]
		owner := set.ms[0].Owner(int64(v))
		for j, m := range set.ms {
			err := m.DeleteSite(v)
			if (err == nil) != (j == owner) {
				t.Fatalf("member %d (owner is %d) DeleteSite(%d): %v", j, owner, v, err)
			}
		}
		set.sites.Delete(v)
		if err := sharded.DeleteSite(v); err != nil {
			t.Fatal(err)
		}
		if err := ref.DeleteSite(v); err != nil {
			t.Fatal(err)
		}
		check("after a delete")
		for j, m := range set.ms {
			err := m.AddSite(v)
			if (err == nil) != (j == owner) {
				t.Fatalf("member %d (owner is %d) AddSite(%d): %v", j, owner, v, err)
			}
		}
		set.sites.Add(v)
		if err := sharded.AddSite(v); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddSite(v); err != nil {
			t.Fatal(err)
		}
		check("after the re-add")
	}
}

// validStart is a well-formed start for member m over everything it owns
// alone (a one-member ownership reduce).
func validStart(t testing.TB, m *Member, qid string) *StartRequest {
	t.Helper()
	rows, err := m.Reps(2)
	if err != nil {
		t.Fatal(err)
	}
	own := ReduceOwnership([][]core.RepInfo{rows})
	if len(own.Masks[0]) < 3 {
		t.Fatalf("fixture member owns only %d clusters at instance 2", len(own.Masks[0]))
	}
	return &StartRequest{QID: qid, P: 2, Pref: WirePref{Name: "linear", Tau: 1.2}, Mask: own.Masks[0], MaskGlobal: own.MasksGI[0]}
}

func TestMemberSessionLifecycle(t *testing.T) {
	m := buildMembers(t, 617, 2)[1]
	ctx := context.Background()

	if _, err := m.Step(&StepRequest{QID: "never-started"}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("step on an unknown qid: %v, want ErrUnknownSession", err)
	}
	m.End("never-started") // best-effort: not an error

	first, err := m.Start(ctx, validStart(t, m, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if first.M == 0 || first.Cand == nil {
		t.Fatalf("start reply %+v: want the cover's trajectory count and a round-0 candidate", first)
	}
	// Naming the reported candidate as the winner selects it: the next
	// candidate is a different representative.
	next, err := m.Step(&StepRequest{QID: "a", WinnerGI: first.Cand.GI})
	if err != nil {
		t.Fatal(err)
	}
	if next.M != 0 {
		t.Fatalf("step reply carries m=%d; only start does", next.M)
	}
	if next.Cand == nil || next.Cand.GI == first.Cand.GI {
		t.Fatalf("after winning, candidate %+v was offered again (first %+v)", next.Cand, first.Cand)
	}
	// Naming somebody else's winner leaves ours on offer.
	again, err := m.Step(&StepRequest{QID: "a", WinnerGI: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cand == nil || again.Cand.GI != next.Cand.GI {
		t.Fatalf("an unrelated winner changed our candidate: %+v then %+v", next.Cand, again.Cand)
	}
	m.End("a")
	if _, err := m.Step(&StepRequest{QID: "a"}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("step after end: %v, want ErrUnknownSession", err)
	}
}

func TestMemberSweepsIdleSessions(t *testing.T) {
	m := buildMembers(t, 617, 2)[0]
	ctx := context.Background()
	clock := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return clock }

	for _, qid := range []string{"idle", "busy"} {
		if _, err := m.Start(ctx, validStart(t, m, qid)); err != nil {
			t.Fatal(err)
		}
	}
	clock = clock.Add(sessionTTL - time.Second)
	if _, err := m.Step(&StepRequest{QID: "busy", WinnerGI: -1}); err != nil {
		t.Fatal(err)
	}
	// Past the TTL for "idle" but not for "busy", which was stepped since;
	// the next start sweeps.
	clock = clock.Add(2 * time.Second)
	if _, err := m.Start(ctx, validStart(t, m, "fresh")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(&StepRequest{QID: "idle", WinnerGI: -1}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("idle session survived the sweep: %v", err)
	}
	for _, qid := range []string{"busy", "fresh"} {
		if _, err := m.Step(&StepRequest{QID: qid, WinnerGI: -1}); err != nil {
			t.Fatalf("live session %q was swept: %v", qid, err)
		}
	}
}

func TestMemberStartRejectsBadRequests(t *testing.T) {
	m := buildMembers(t, 617, 2)[0]
	ctx := context.Background()
	mutate := func(f func(*StartRequest)) *StartRequest {
		req := *validStart(t, m, "bad")
		req.Mask = append([]core.ClusterID(nil), req.Mask...)
		f(&req)
		return &req
	}
	for name, req := range map[string]*StartRequest{
		"no qid":             mutate(func(r *StartRequest) { r.QID = "" }),
		"p below the ladder": mutate(func(r *StartRequest) { r.P = -1 }),
		"p above the ladder": mutate(func(r *StartRequest) { r.P = 99 }),
		"mask lengths":       mutate(func(r *StartRequest) { r.MaskGlobal = r.MaskGlobal[1:] }),
		"mask order":         mutate(func(r *StartRequest) { r.Mask[1] = r.Mask[0] }),
		"unknown preference": mutate(func(r *StartRequest) { r.Pref.Name = "nope" }),
		"negative tau":       mutate(func(r *StartRequest) { r.Pref.Tau = -1 }),
	} {
		if _, err := m.Start(ctx, req); err == nil {
			t.Errorf("%s: start accepted", name)
		}
	}
	if len(m.sessions) != 0 {
		t.Fatalf("%d sessions registered by rejected starts", len(m.sessions))
	}
	if _, err := m.Reps(99); err == nil {
		t.Error("Reps(99) accepted")
	}
	// The member is unharmed: the same request, valid, succeeds.
	if _, err := m.Start(ctx, validStart(t, m, "good")); err != nil {
		t.Fatalf("valid start after the rejected ones: %v", err)
	}
}

func TestMemberMetaAndConstruction(t *testing.T) {
	inst, _ := buildFixture(t, 617)
	want := append([]roadnet.NodeID(nil), inst.Sites...)
	m, err := BuildMember(inst, 1, Options{Shards: 2, Partitioner: GridPartitioner, Build: fixtureBuild})
	if err != nil {
		t.Fatal(err)
	}
	meta := m.Meta()
	if meta.Shards != 2 || meta.Index != 1 || m.ShardIndex() != 1 || meta.Partitioner != GridPartitioner {
		t.Fatalf("meta topology: %+v", meta)
	}
	if meta.Ladder != ladderOf(m.Index()) || meta.TauMin != fixtureBuild.TauMin || meta.Rungs == 0 {
		t.Fatalf("meta ladder: %+v", meta.Ladder)
	}
	if fmt.Sprint(meta.InitialSites) != fmt.Sprint(want) {
		t.Fatal("meta.InitialSites is not the build-time global site order")
	}
	for _, v := range meta.Sites {
		if m.Owner(int64(v)) != 1 {
			t.Fatalf("member 1 lists site %d, which its partitioner routes to shard %d", v, m.Owner(int64(v)))
		}
	}
	if len(meta.Sites) == 0 || len(meta.Sites) >= len(want) {
		t.Fatalf("member 1 holds %d of %d sites", len(meta.Sites), len(want))
	}

	// A member recovered from a checkpoint no longer knows the global order.
	rec, err := NewMember(m.Engine, 2, 1, GridPartitioner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := json.Marshal(rec.Meta()); strings.Contains(string(raw), "initial_sites") {
		t.Fatalf("recovered member reports initial sites: %s", raw)
	}

	if _, err := NewMember(nil, 2, 0, HashPartitioner, nil); err == nil {
		t.Error("NewMember accepted a nil engine")
	}
	if _, err := NewMember(m.Engine, 2, 2, HashPartitioner, nil); err == nil {
		t.Error("NewMember accepted index 2 of 2")
	}
	if _, err := NewMember(m.Engine, 2, 0, "nope", nil); err == nil {
		t.Error("NewMember accepted an unknown partitioner")
	}
	for name, build := range map[string]func() (*Member, error){
		"nil instance": func() (*Member, error) { return BuildMember(nil, 0, Options{Shards: 2}) },
		"zero shards":  func() (*Member, error) { return BuildMember(inst, 0, Options{}) },
		"index range":  func() (*Member, error) { return BuildMember(inst, 2, Options{Shards: 2}) },
		"partitioner":  func() (*Member, error) { return BuildMember(inst, 0, Options{Shards: 2, Partitioner: "nope"}) },
		"inverted taus": func() (*Member, error) {
			return BuildMember(inst, 0, Options{Shards: 2, Build: core.Options{TauMin: 2, TauMax: 1}})
		},
	} {
		if _, err := build(); err == nil {
			t.Errorf("BuildMember accepted: %s", name)
		}
	}
}

// TestWireGolden pins the round protocol's JSON to the bytes the previous
// release emits, so a member and a router built from different commits
// interoperate. The strings below were produced by the pre-coordinator
// code; a change to any of them is a wire break, not a refactor.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		v    any
		into any
		want string
	}{
		{
			StartRequest{QID: "q7-1", P: 2, Pref: WirePref{Name: "exp", Tau: 0.8, Lambda: 1.5}, Mask: []core.ClusterID{0, 3, 17}, MaskGlobal: []int32{0, 2, 9}},
			new(StartRequest),
			`{"qid":"q7-1","p":2,"pref":{"name":"exp","tau":0.8,"lambda":1.5},"mask":[0,3,17],"mask_global":[0,2,9]}`,
		},
		{
			StepRequest{QID: "q7-1", WinnerGI: 9, Deltas: []UtilDelta{{Traj: 4, OldU: 0, NewU: 0.1}, {Traj: 11, OldU: 0.25, NewU: 1}}},
			new(StepRequest),
			`{"qid":"q7-1","winner_gi":9,"deltas":[{"t":4,"o":0,"n":0.1},{"t":11,"o":0.25,"n":1}]}`,
		},
		{
			RoundReply{M: 60, Cand: &WireCand{GI: 2, Marg: 3.0000000000000004, Weight: 7.5, Trajs: []int32{1, 4}, Scores: []float64{1, 1e-7}}},
			new(RoundReply),
			`{"m":60,"cand":{"gi":2,"marg":3.0000000000000004,"w":7.5,"tc_t":[1,4],"tc_s":[1,1e-7]}}`,
		},
		{RoundReply{}, new(RoundReply), `{}`},
		{
			[]core.RepInfo{{Cluster: 3, Node: 41, Dr: 0.30000000000000004}},
			new([]core.RepInfo),
			`[{"c":3,"v":41,"dr":0.30000000000000004}]`,
		},
		{
			MemberMeta{Shards: 2, Index: 1, Partitioner: "hash", Ladder: Ladder{TauMin: 0.4, TauMax: 6.4, Gamma: 0.75, Rungs: 11},
				Sites: []roadnet.NodeID{5, 9}, InitialSites: []roadnet.NodeID{9, 5, 7}, LSN: 3, Epoch: 1},
			new(MemberMeta),
			`{"shards":2,"index":1,"partitioner":"hash","tau_min":0.4,"tau_max":6.4,"gamma":0.75,"rungs":11,"sites":[5,9],"initial_sites":[9,5,7],"lsn":3,"epoch":1}`,
		},
		{
			MemberMeta{Shards: 2, Index: 1, Partitioner: "hash", Ladder: Ladder{TauMin: 0.4, TauMax: 6.4, Gamma: 0.75, Rungs: 11}, Sites: []roadnet.NodeID{}},
			new(MemberMeta),
			`{"shards":2,"index":1,"partitioner":"hash","tau_min":0.4,"tau_max":6.4,"gamma":0.75,"rungs":11,"sites":[],"lsn":0,"epoch":0}`,
		},
	} {
		raw, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != tc.want {
			t.Errorf("%T encodes as\n  %s\nwant\n  %s", tc.v, raw, tc.want)
		}
		// And the previous release's bytes decode to the same value.
		if err := json.Unmarshal([]byte(tc.want), tc.into); err != nil {
			t.Fatalf("%T: decoding the golden bytes: %v", tc.v, err)
		}
		back, _ := json.Marshal(tc.into)
		if string(back) != tc.want {
			t.Errorf("%T round trip:\n  %s\nwant\n  %s", tc.v, back, tc.want)
		}
	}
	// A cluster id that does not fit the wire's int32 is refused at decode,
	// not wrapped into a valid-looking one.
	var req StartRequest
	if err := json.Unmarshal([]byte(`{"qid":"q","p":0,"pref":{"name":"binary","tau":1},"mask":[4294967296],"mask_global":[0]}`), &req); err == nil {
		t.Fatalf("mask id 4294967296 decoded as cluster %d", req.Mask[0])
	}
}
