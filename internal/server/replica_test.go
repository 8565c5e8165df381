package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/wal"
)

// newPrimary boots a WAL-served primary over a fresh fixture and returns
// the HTTP server, its engine, and the log.
func newPrimary(t *testing.T, seed int64, walOpts wal.Options) (*httptest.Server, *engine.Engine, *wal.Log) {
	t.Helper()
	idx, _ := buildFixture(t, seed)
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	walOpts.Policy = wal.SyncNever
	log, err := wal.Open(t.TempDir(), walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		log.Close()
	})
	return ts, eng, log
}

// driveUpdates posts n site/trajectory updates through the primary's HTTP
// surface, so the log carries exactly what clients were acknowledged.
func driveUpdates(t *testing.T, ts *httptest.Server, eng *engine.Engine, n int) {
	t.Helper()
	inst := eng.Index().TopsInstance()
	added := 0
	for v := 0; v < inst.G.NumNodes() && added < n; v++ {
		if _, ok := inst.SiteIDOf(roadnet.NodeID(v)); ok {
			continue
		}
		status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
			fmt.Sprintf(`{"op":"add_site","node":%d}`, v))
		if status != http.StatusOK {
			t.Fatalf("update %d: %d %s", v, status, body)
		}
		added++
	}
	if added < n {
		t.Fatalf("only %d free nodes for %d updates", added, n)
	}
}

func TestFollowerConvergesAndServesIdenticalAnswers(t *testing.T) {
	const seed = 811
	ts, primaryEng, log := newPrimary(t, seed, wal.Options{})
	driveUpdates(t, ts, primaryEng, 15)

	// The follower starts from an identical preset build (LSN 0) and tails
	// the whole log over HTTP.
	fidx, _ := buildFixture(t, seed)
	feng, err := engine.New(fidx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flog, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	fol, err := NewFollower(ts.URL, feng, flog, FollowerOptions{Poll: 10 * time.Millisecond, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if feng.LSN() != primaryEng.LSN() {
		t.Fatalf("follower LSN %d, primary %d", feng.LSN(), primaryEng.LSN())
	}
	st := fol.Status()
	if st.Lag != 0 || st.Role != "follower" || st.PrimaryLSN != primaryEng.LSN() {
		t.Fatalf("status after convergence: %+v", st)
	}
	// The follower's local log mirrors the primary's stream.
	if flog.HeadLSN() != log.HeadLSN() {
		t.Fatalf("local log head %d, primary log head %d", flog.HeadLSN(), log.HeadLSN())
	}

	// Query both engines over the serving surface: answers must be
	// bit-identical.
	fsrv, err := New(feng, Options{ReadOnly: true, Replication: fol.Status})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	for _, q := range []string{
		`{"k":4,"tau":0.9}`,
		`{"k":7,"tau":2.5,"pref":"linear"}`,
		`{"k":2,"tau":1.4,"pref":"convex"}`,
	} {
		stP, bodyP := postJSON(t, ts.Client(), ts.URL+"/v1/query", q)
		stF, bodyF := postJSON(t, fts.Client(), fts.URL+"/v1/query", q)
		if stP != http.StatusOK || stF != http.StatusOK {
			t.Fatalf("query %s: primary %d, follower %d", q, stP, stF)
		}
		var rp, rf map[string]any
		if err := json.Unmarshal(bodyP, &rp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyF, &rf); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"sites", "site_ids", "estimated_utility", "estimated_covered"} {
			jp, _ := json.Marshal(rp[field])
			jf, _ := json.Marshal(rf[field])
			if !bytes.Equal(jp, jf) {
				t.Fatalf("query %s: %s differs: %s vs %s", q, field, jp, jf)
			}
		}
	}

	// Writes must bounce off the replica with 403.
	status, _ := postJSON(t, fts.Client(), fts.URL+"/v1/update", `{"op":"add_site","node":1}`)
	if status != http.StatusForbidden {
		t.Fatalf("replica update status %d, want 403", status)
	}

	// /healthz and /statsz surface the replication block.
	resp, err := fts.Client().Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Replication *ReplicationStatus `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Replication == nil || health.Replication.Role != "follower" {
		t.Fatalf("healthz replication block: %+v", health.Replication)
	}
	var stats statszResponse
	resp, err = fts.Client().Get(fts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Replication == nil || stats.Replication.LSN != primaryEng.LSN() {
		t.Fatalf("statsz replication block: %+v", stats.Replication)
	}
	if stats.Engine.LSN != primaryEng.LSN() {
		t.Fatalf("statsz engine LSN %d, want %d", stats.Engine.LSN, primaryEng.LSN())
	}

	// New updates on the primary flow through the next poll — and a
	// follower restart resumes from its local log, not from scratch.
	driveUpdates(t, ts, primaryEng, 3)
	if _, err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if feng.LSN() != primaryEng.LSN() {
		t.Fatalf("follower LSN %d after second poll, primary %d", feng.LSN(), primaryEng.LSN())
	}
}

func TestFollowerBootstrapFromCheckpointAfterCompaction(t *testing.T) {
	const seed = 823
	// Tiny segments so compaction genuinely deletes early history.
	ts, primaryEng, log := newPrimary(t, seed, wal.Options{SegmentBytes: 64})
	driveUpdates(t, ts, primaryEng, 10)

	ok, err := LogAvailableFrom(context.Background(), ts.Client(), ts.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("uncompacted log should stream from 1")
	}

	// Checkpoint + compact: a from-scratch follower can no longer replay
	// the full history — /v1/log?from=1 answers 410 Gone and the probe
	// helper says "bootstrap".
	if removed, err := log.Compact(primaryEng.LSN() - 1); err != nil || removed == 0 {
		t.Fatalf("Compact removed %d segments, %v", removed, err)
	}
	ok, err = LogAvailableFrom(context.Background(), ts.Client(), ts.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("compacted log claims to stream from 1")
	}
	resp410, err := ts.Client().Get(ts.URL + "/v1/log?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp410.Body.Close()
	if resp410.StatusCode != http.StatusGone {
		t.Fatalf("compacted /v1/log status %d, want 410", resp410.StatusCode)
	}

	// A replica stranded behind the compaction floor latches
	// needs_bootstrap and its /healthz flips to 503, so load balancers
	// stop routing to a replica that can only grow staler.
	sidx, _ := buildFixture(t, seed)
	seng, err := engine.New(sidx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stranded, err := NewFollower(ts.URL, seng, nil, FollowerOptions{Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stranded.Poll(context.Background()); !errors.Is(err, ErrNeedBootstrap) {
		t.Fatalf("stranded poll error = %v, want ErrNeedBootstrap", err)
	}
	if st := stranded.Status(); !st.NeedsBootstrap {
		t.Fatalf("stranded status: %+v", st)
	}
	ssrv, err := New(seng, Options{ReadOnly: true, Replication: stranded.Status})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(ssrv)
	defer sts.Close()
	hresp, err := sts.Client().Get(sts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stranded replica /healthz status %d, want 503", hresp.StatusCode)
	}

	// Fetch the checkpoint and recover an engine from it: the bundled
	// dataset makes it load against the graph alone.
	body, err := FetchCheckpoint(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	idx, _ := buildFixture(t, seed) // only the graph is reused
	g := idx.TopsInstance().G
	inst, _, br, err := wal.ReadCheckpoint(body, g)
	if err != nil {
		t.Fatal(err)
	}
	cidx, err := core.ReadIndex(br, inst)
	if err != nil {
		t.Fatal(err)
	}
	if cidx.WalLSN() != primaryEng.LSN() {
		t.Fatalf("checkpoint LSN %d, primary at %d", cidx.WalLSN(), primaryEng.LSN())
	}
	ceng, err := engine.New(cidx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(ts.URL, ceng, nil, FollowerOptions{Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	driveUpdates(t, ts, primaryEng, 2)
	if _, err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ceng.LSN() != primaryEng.LSN() {
		t.Fatalf("bootstrapped follower LSN %d, primary %d", ceng.LSN(), primaryEng.LSN())
	}
	_ = log
}
