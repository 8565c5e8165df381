package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netclus/internal/roadnet"
	"netclus/internal/shard"
	"netclus/internal/wal"
)

// TestShardCoverRejectsBadRequests pins /v1/shard/cover's input validation
// through a real member server: a ladder instance outside the ladder would
// index past idx.Instances inside the cover cache's sync.Once, a mask id
// past int32 would wrap into a valid cluster, and a mask out of order or a
// preference the decoder refuses would fill a cover for a query nobody
// asked. All are 400 bad_request, and the member keeps serving.
func TestShardCoverRejectsBadRequests(t *testing.T) {
	m, err := shard.BuildMember(buildInstance(t, 977), 0, shard.Options{Shards: 2, Build: fixtureBuild})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, Options{Member: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reps, err := m.Reps(context.Background(), 1)
	if err != nil || len(reps) < 2 {
		t.Fatalf("member reps at instance 1: %d, %v", len(reps), err)
	}
	c0, c1 := reps[0].Cluster, reps[1].Cluster
	cover := func(body string) (int, []byte) {
		return postJSON(t, ts.Client(), ts.URL+"/v1/shard/cover", body)
	}
	for _, tc := range []struct{ label, body string }{
		{"p above the ladder", `{"p":99,"pref":{"name":"binary","tau":0.8},"mask":[0]}`},
		{"p below the ladder", `{"p":-1,"pref":{"name":"binary","tau":0.8},"mask":[0]}`},
		{"mask id past int32", `{"p":1,"pref":{"name":"binary","tau":0.8},"mask":[4294967296]}`},
		{"negative mask id", `{"p":1,"pref":{"name":"binary","tau":0.8},"mask":[-1]}`},
		{"mask out of order", fmt.Sprintf(`{"p":1,"pref":{"name":"binary","tau":0.8},"mask":[%d,%d]}`, c1, c0)},
		{"mask repeats an id", fmt.Sprintf(`{"p":1,"pref":{"name":"binary","tau":0.8},"mask":[%d,%d]}`, c0, c0)},
		{"unknown preference", fmt.Sprintf(`{"p":1,"pref":{"name":"nope","tau":0.8},"mask":[%d]}`, c0)},
		{"negative tau", fmt.Sprintf(`{"p":1,"pref":{"name":"binary","tau":-1},"mask":[%d]}`, c0)},
		{"lambda on linear", fmt.Sprintf(`{"p":1,"pref":{"name":"linear","tau":0.8,"lambda":2},"mask":[%d]}`, c0)},
		{"unknown field", fmt.Sprintf(`{"p":1,"pref":{"name":"binary","tau":0.8},"mask":[%d],"qid":"x"}`, c0)},
	} {
		status, body := cover(tc.body)
		var env errorResponse
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusBadRequest || env.Code != CodeBadRequest {
			t.Fatalf("%s: status %d body %s, want 400 %s", tc.label, status, body, CodeBadRequest)
		}
	}

	status, body := cover(fmt.Sprintf(`{"p":1,"pref":{"name":"binary","tau":0.8},"mask":[%d,%d]}`, c0, c1))
	cs, got, err := shard.ReadCover(body)
	if status != http.StatusOK || err != nil {
		t.Fatalf("valid cover after the rejected ones: status %d, %v", status, err)
	}
	if len(got) != 2 || got[0] != c0 || got[1] != c1 || cs.N() != 2 {
		t.Fatalf("cover for mask [%d %d] stands for clusters %v (%d rows)", c0, c1, got, cs.N())
	}
}

// TestMemberRejectsMisroutedSiteKinds: a member refuses every site kind
// naming a node another shard owns, by every exported route — the typed
// methods (promoted from the embedded engine), Apply, the routing core's
// Conn.Update, and /v1/update — because the check sits inside the engine's
// one live write path. At the
// parent commit only AddSite/DeleteSite were shadowed on Member, so AddSites
// landed foreign sites silently. Replay goes on trusting the log.
func TestMemberRejectsMisroutedSiteKinds(t *testing.T) {
	inst := buildInstance(t, 983)
	m, err := shard.BuildMember(inst, 0, shard.Options{Shards: 2, Build: fixtureBuild})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, Options{Member: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two non-site nodes per owner, and one of the other shard's sites.
	var mine, theirs []roadnet.NodeID
	isSite := map[roadnet.NodeID]bool{}
	for _, v := range inst.Sites {
		isSite[v] = true
	}
	for v := roadnet.NodeID(0); len(mine) < 2 || len(theirs) < 2; v++ {
		if isSite[v] {
			continue
		}
		if routedTo(m, v) == 0 {
			mine = append(mine, v)
		} else {
			theirs = append(theirs, v)
		}
	}
	var theirSite roadnet.NodeID
	for _, v := range inst.Sites {
		if routedTo(m, v) == 1 {
			theirSite = v
		}
	}
	sites := func() int { return len(metaOf(m).Sites) }
	before := sites()

	update := func(op string, v roadnet.NodeID) error {
		status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":%q,"node":%d}`, op, v))
		if status == http.StatusOK {
			return nil
		}
		var env errorResponse
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusConflict || env.Code != CodeConflict {
			t.Fatalf("%s %d: status %d body %s, want 409 %s", op, v, status, body, CodeConflict)
		}
		return errors.New(env.Error)
	}
	apply := func(mu wal.Mutation) error {
		_, err := m.Apply(mu)
		return err
	}
	for name, misrouted := range map[string]func() error{
		"AddSite":            func() error { return m.AddSite(theirs[0]) },
		"DeleteSite":         func() error { return m.DeleteSite(theirSite) },
		"AddSites":           func() error { return m.AddSites([]roadnet.NodeID{mine[0], theirs[0]}) },
		"Apply add_site":     func() error { return apply(wal.Mutation{Kind: wal.KindAddSite, Node: theirs[0]}) },
		"Apply delete_site":  func() error { return apply(wal.Mutation{Kind: wal.KindDeleteSite, Node: theirSite}) },
		"Apply add_sites":    func() error { return apply(wal.Mutation{Kind: wal.KindAddSites, Nodes: theirs}) },
		"update add_site":    func() error { return update("add_site", theirs[0]) },
		"update delete_site": func() error { return update("delete_site", theirSite) },
		"Conn.Update": func() error {
			_, err := m.Update(context.Background(), wal.Update{Op: "add_site", Node: int64(theirs[0])})
			return err
		},
		"embedded Engine arm": func() error { return m.Engine.AddSites(theirs) },
	} {
		if err := misrouted(); err == nil || !strings.Contains(err.Error(), "belongs to shard 1") {
			t.Errorf("%s: a node shard 1 owns was not refused: %v", name, err)
		}
	}
	if got := sites(); got != before {
		t.Fatalf("refused mutations changed the site set: %d -> %d", before, got)
	}

	// Owned nodes pass by the same routes.
	if err := m.AddSites(mine[:1]); err != nil {
		t.Fatal(err)
	}
	if err := update("add_site", mine[1]); err != nil {
		t.Fatal(err)
	}
	if err := update("delete_site", mine[1]); err != nil {
		t.Fatal(err)
	}
	// Replay is not a live route: whatever the log holds, a member admitted.
	rec := wal.Record{LSN: m.LSN() + 1, Kind: wal.KindAddSite, Body: wal.NodeBody(int64(theirs[1]))}
	if err := m.ApplyRecord(rec); err != nil {
		t.Fatalf("replay of a logged record refused: %v", err)
	}
	if got := sites(); got != before+2 {
		t.Fatalf("site set %d after the accepted mutations, want %d", got, before+2)
	}
}

// routedTo is the shard of m's topology that owns node v.
func routedTo(m *shard.Member, v roadnet.NodeID) int { return shard.Of(v, metaOf(m).Shards) }

// metaOf is m's /v1/shard/meta answer.
func metaOf(m *shard.Member) shard.MemberMeta {
	meta, _ := m.Meta(context.Background())
	return meta
}
