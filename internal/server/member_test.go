package server

import (
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

// TestShardStartRejectsBadInstanceAndMask pins /v1/shard/query/start's
// input validation through a real member server: a ladder instance outside
// the ladder used to index past idx.Instances inside the cover cache's
// sync.Once (a dropped connection for the caller and a poisoned cache
// entry for the next), and a mask id past int32 used to wrap into a valid
// cluster. Both are 400s now, and the member keeps serving.
func TestShardStartRejectsBadInstanceAndMask(t *testing.T) {
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

	start := func(p int, mask string) (int, []byte) {
		return postJSON(t, ts.Client(), ts.URL+"/v1/shard/query/start",
			fmt.Sprintf(`{"qid":"q-%d","p":%d,"pref":{"name":"binary","tau":0.8},"mask":[%s],"mask_global":[0]}`, p, p, mask))
	}
	for _, tc := range []struct {
		label string
		p     int
		mask  string
	}{
		{"p above the ladder", 99, "0"},
		{"p below the ladder", -1, "0"},
		{"mask id past int32", 1, "4294967296"},
	} {
		status, body := start(tc.p, tc.mask)
		var env errorResponse
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusBadRequest || env.Code != CodeBadRequest {
			t.Fatalf("%s: status %d body %s, want 400 %s", tc.label, status, body, CodeBadRequest)
		}
	}

	reps, err := m.Reps(1)
	if err != nil || len(reps) == 0 {
		t.Fatalf("member reps at instance 1: %d, %v", len(reps), err)
	}
	status, body := start(1, fmt.Sprint(reps[0].Cluster))
	var reply shard.RoundReply
	if err := json.Unmarshal(body, &reply); err != nil || status != http.StatusOK || reply.Cand == nil {
		t.Fatalf("valid start after the rejected ones: status %d body %s", status, body)
	}
}

// TestMemberRejectsMisroutedSiteKinds: a member refuses every site kind
// naming a node another shard owns, by every exported route — the typed
// methods (promoted from the embedded engine), Apply, and /v1/update —
// because the check sits inside the engine's one live write path. At the
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
		if m.Owner(int64(v)) == 0 {
			mine = append(mine, v)
		} else {
			theirs = append(theirs, v)
		}
	}
	var theirSite roadnet.NodeID
	for _, v := range inst.Sites {
		if m.Owner(int64(v)) == 1 {
			theirSite = v
		}
	}
	sites := func() int { return len(m.Meta().Sites) }
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
		"AddSite":             func() error { return m.AddSite(theirs[0]) },
		"DeleteSite":          func() error { return m.DeleteSite(theirSite) },
		"AddSites":            func() error { return m.AddSites([]roadnet.NodeID{mine[0], theirs[0]}) },
		"Apply add_site":      func() error { return apply(wal.Mutation{Kind: wal.KindAddSite, Node: theirs[0]}) },
		"Apply delete_site":   func() error { return apply(wal.Mutation{Kind: wal.KindDeleteSite, Node: theirSite}) },
		"Apply add_sites":     func() error { return apply(wal.Mutation{Kind: wal.KindAddSites, Nodes: theirs}) },
		"update add_site":     func() error { return update("add_site", theirs[0]) },
		"update delete_site":  func() error { return update("delete_site", theirSite) },
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
