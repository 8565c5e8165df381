package shard

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

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
		m, err := BuildMember(inst, j, Options{Shards: n, Build: fixtureBuild})
		if err != nil {
			t.Fatal(err)
		}
		ms[j] = m
	}
	return ms
}

// memberSet is a gather over in-process members whose every cover crosses
// the binary codec on its way from member to gather, as it does between a
// member process and the router, and must come out of it equal to what the
// member filled.
type memberSet struct {
	ms    []*Member
	sites *SiteMirror
}

func newMemberSet(ms []*Member) *memberSet {
	return &memberSet{ms: ms, sites: NewSiteMirror(metaOf(ms[0]).InitialSites)}
}

func (s *memberSet) query(t testing.TB, q core.QueryOptions, wp WirePref) *core.QueryResult {
	t.Helper()
	ctx := context.Background()
	l := metaOf(s.ms[0]).Ladder
	p := core.InstanceForTau(l.TauMin, l.Gamma, l.Rungs, q.Pref.Tau)
	rows := make([][]core.RepInfo, len(s.ms))
	for j, m := range s.ms {
		var err error
		if rows[j], err = m.Reps(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	own := ReduceOwnership(rows)
	var covers []Cover
	for j, m := range s.ms {
		if len(own.Masks[j]) == 0 {
			continue
		}
		cs, reps, err := m.Cover(ctx, &CoverRequest{P: p, Pref: wp, Mask: own.Masks[j]})
		if err != nil {
			t.Fatal(err)
		}
		got, gotReps, err := ReadCover(AppendCover(nil, cs, reps))
		if err != nil {
			t.Fatalf("member %d, p=%d, %s τ=%v: shipped cover does not decode: %v", j, p, wp.Name, wp.Tau, err)
		}
		label := fmt.Sprintf("member %d, p=%d, %s τ=%v: decoded cover", j, p, wp.Name, wp.Tau)
		sameCover(t, label, got, cs)
		if !slices.Equal(gotReps, reps) {
			t.Fatalf("%s stands for clusters %v, the member's for %v", label, gotReps, reps)
		}
		covers = append(covers, Cover{Shard: j, CS: got, Reps: gotReps})
	}
	out, err := Answer(ctx, p, own, covers, s.sites, q)
	if err != nil {
		t.Fatal(err)
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
		sharded := shardedEngine(t, shInst, n)
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
		owner := routedTo(set.ms[0], v)
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

// validCover is a well-formed cover request for member m over everything
// it owns alone (a one-member ownership reduce).
func validCover(t testing.TB, m *Member) *CoverRequest {
	t.Helper()
	rows, err := m.Reps(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	own := ReduceOwnership([][]core.RepInfo{rows})
	if len(own.Masks[0]) < 3 {
		t.Fatalf("fixture member owns only %d clusters at instance 2", len(own.Masks[0]))
	}
	return &CoverRequest{P: 2, Pref: WirePref{Name: "linear", Tau: 1.2}, Mask: own.Masks[0]}
}

func TestMemberCoverRejectsBadRequests(t *testing.T) {
	m := buildMembers(t, 617, 2)[0]
	ctx := context.Background()
	mutate := func(f func(*CoverRequest)) *CoverRequest {
		req := *validCover(t, m)
		req.Mask = append([]core.ClusterID(nil), req.Mask...)
		f(&req)
		return &req
	}
	for name, req := range map[string]*CoverRequest{
		"p below the ladder": mutate(func(r *CoverRequest) { r.P = -1 }),
		"p above the ladder": mutate(func(r *CoverRequest) { r.P = 99 }),
		"mask order":         mutate(func(r *CoverRequest) { r.Mask[1] = r.Mask[0] }),
		"negative mask id":   mutate(func(r *CoverRequest) { r.Mask[0] = -1 }),
		"unknown preference": mutate(func(r *CoverRequest) { r.Pref.Name = "nope" }),
		"negative tau":       mutate(func(r *CoverRequest) { r.Pref.Tau = -1 }),
	} {
		if _, _, err := m.Cover(ctx, req); err == nil {
			t.Errorf("%s: cover served", name)
		}
	}
	if _, err := m.Reps(context.Background(), 99); err == nil {
		t.Error("Reps(99) accepted")
	}
	// The member is unharmed: the same request, valid, succeeds, and the
	// cover stands for exactly the clusters asked for.
	req := validCover(t, m)
	cs, reps, err := m.Cover(ctx, req)
	if err != nil {
		t.Fatalf("valid cover after the rejected ones: %v", err)
	}
	if !slices.Equal(reps, req.Mask) || cs.N() != len(reps) {
		t.Fatalf("cover for mask %v stands for clusters %v (%d rows)", req.Mask, reps, cs.N())
	}
}

func TestMemberMetaAndConstruction(t *testing.T) {
	inst, _ := buildFixture(t, 617)
	want := append([]roadnet.NodeID(nil), inst.Sites...)
	m, err := BuildMember(inst, 1, Options{Shards: 2, Build: fixtureBuild})
	if err != nil {
		t.Fatal(err)
	}
	meta := metaOf(m)
	if meta.Shards != 2 || meta.Index != 1 || m.ShardIndex() != 1 || meta.Partitioner != PartitionRule {
		t.Fatalf("meta topology: %+v", meta)
	}
	if meta.Ladder != ladderOf(m.Index()) || meta.TauMin != fixtureBuild.TauMin || meta.Rungs == 0 {
		t.Fatalf("meta ladder: %+v", meta.Ladder)
	}
	if fmt.Sprint(meta.InitialSites) != fmt.Sprint(want) {
		t.Fatal("meta.InitialSites is not the build-time global site order")
	}
	for _, v := range meta.Sites {
		if routedTo(m, v) != 1 {
			t.Fatalf("member 1 lists site %d, which Of routes to shard %d", v, routedTo(m, v))
		}
	}
	if len(meta.Sites) == 0 || len(meta.Sites) >= len(want) {
		t.Fatalf("member 1 holds %d of %d sites", len(meta.Sites), len(want))
	}

	// A member recovered from a checkpoint no longer knows the global order.
	rec, err := NewMember(m.Engine, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := json.Marshal(metaOf(rec)); strings.Contains(string(raw), "initial_sites") {
		t.Fatalf("recovered member reports initial sites: %s", raw)
	}

	if _, err := NewMember(nil, 2, 0, nil); err == nil {
		t.Error("NewMember accepted a nil engine")
	}
	if _, err := NewMember(m.Engine, 2, 2, nil); err == nil {
		t.Error("NewMember accepted index 2 of 2")
	}
	for name, build := range map[string]func() (*Member, error){
		"nil instance": func() (*Member, error) { return BuildMember(nil, 0, Options{Shards: 2}) },
		"zero shards":  func() (*Member, error) { return BuildMember(inst, 0, Options{}) },
		"index range":  func() (*Member, error) { return BuildMember(inst, 2, Options{Shards: 2}) },
		"inverted taus": func() (*Member, error) {
			return BuildMember(inst, 0, Options{Shards: 2, Build: core.Options{TauMin: 2, TauMax: 1}})
		},
	} {
		if _, err := build(); err == nil {
			t.Errorf("BuildMember accepted: %s", name)
		}
	}
}

// TestWireGolden pins the member surface's bytes, so a member and a router
// built from different commits interoperate or fail loudly: the JSON of the
// cover request and of the rows /v1/shard/reps and /v1/shard/meta answer,
// and the binary cover body, written out here byte by byte from the layout
// in codec.go. A change to any of them is a wire break, not a refactor.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		v    any
		into any
		want string
	}{
		{
			CoverRequest{P: 2, Pref: WirePref{Name: "exp", Tau: 0.8, Lambda: 1.5}, Mask: []core.ClusterID{0, 3, 17}},
			new(CoverRequest),
			`{"p":2,"pref":{"name":"exp","tau":0.8,"lambda":1.5},"mask":[0,3,17]}`,
		},
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
		// And the golden bytes decode to the same value.
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
	var req CoverRequest
	if err := json.Unmarshal([]byte(`{"p":0,"pref":{"name":"binary","tau":1},"mask":[4294967296]}`), &req); err == nil {
		t.Fatalf("mask id 4294967296 decoded as cluster %d", req.Mask[0])
	}

	// The cover body: three rows standing for clusters 3, 17 and 40 over
	// five trajectories, the middle row empty.
	cs := tops.NewCoverSets(3, 5)
	cs.SetTCArrays(0, []int32{1, 4}, []float64{1, 0.5})
	cs.SetTCArrays(2, []int32{0}, []float64{0.25})
	cs.Finalize()
	reps := []core.ClusterID{3, 17, 40}
	golden := strings.Join([]string{
		"4e434356",                         // "NCCV"
		"03000000", "05000000", "03000000", // n, m, pairs
		"03000000", "11000000", "28000000", // reps
		"00000000", "02000000", "02000000", "03000000", // row offsets
		"01000000", "04000000", "00000000", // trajectory ids
		"000000000000f03f", "000000000000e03f", "000000000000d03f", // 1, 0.5, 0.25
	}, "")
	if got := hex.EncodeToString(AppendCover(nil, cs, reps)); got != golden {
		t.Fatalf("cover body encodes as\n  %s\nwant\n  %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	back, backReps, err := ReadCover(raw)
	if err != nil {
		t.Fatalf("decoding the golden cover body: %v", err)
	}
	sameCover(t, "golden cover body", back, cs)
	if !slices.Equal(backReps, reps) || back.Weights[0] != 1.5 {
		t.Fatalf("golden cover body decodes to clusters %v, weights %v", backReps, back.Weights)
	}
}
