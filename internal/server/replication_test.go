package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netclus/internal/engine"
	"netclus/internal/ingest"
	"netclus/internal/roadnet"
	"netclus/internal/wal"
)

// newReplServer boots a WAL-attached primary with customizable serving
// options (the replication-v2 test fixture).
func newReplServer(t *testing.T, seed int64, mutate func(*Options)) (*httptest.Server, *Server, *engine.Engine, *wal.Log) {
	t.Helper()
	idx, _ := buildFixture(t, seed)
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	opts := Options{Log: log}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		log.Close()
	})
	return ts, srv, eng, log
}

// doReq issues one request and returns status, decoded error envelope (zero
// when the body is not one), and the raw response.
func doReq(t *testing.T, client *http.Client, method, url, body string) (int, ErrorResponse, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorResponse
	_ = json.Unmarshal(data, &env)
	return resp.StatusCode, env, resp
}

// TestErrorEnvelopeCodes pins the machine-readable code of every handler
// error class the API can answer, table-driven per API.md.
func TestErrorEnvelopeCodes(t *testing.T) {
	ts, srv, _, log := newReplServer(t, 331, func(o *Options) {
		o.Limits = Limits{MaxBodyBytes: 1 << 10}
	})
	head := log.HeadLSN()
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"query malformed json", http.MethodPost, "/v1/query", "{", http.StatusBadRequest, CodeBadRequest},
		{"query wrong method", http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"batch wrong method", http.MethodGet, "/v1/query/batch", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"update malformed json", http.MethodPost, "/v1/update", "{", http.StatusBadRequest, CodeBadRequest},
		{"update unknown op", http.MethodPost, "/v1/update", `{"op":"frobnicate"}`, http.StatusBadRequest, CodeBadRequest},
		{"update conflicting state", http.MethodPost, "/v1/update", `{"op":"delete_trajectory","id":99999}`, http.StatusConflict, CodeConflict},
		{"update too large", http.MethodPost, "/v1/update", `{"op":"add_site","node":1,"pad":"` + strings.Repeat("x", 4096) + `"}`, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"log wrong method", http.MethodPost, "/v1/log", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"log missing from", http.MethodGet, "/v1/log", "", http.StatusBadRequest, CodeBadRequest},
		{"log zero from", http.MethodGet, "/v1/log?from=0", "", http.StatusBadRequest, CodeBadRequest},
		{"log bad max", http.MethodGet, "/v1/log?from=1&max=-3", "", http.StatusBadRequest, CodeBadRequest},
		{"log bad wait", http.MethodGet, "/v1/log?from=1&wait=banana", "", http.StatusBadRequest, CodeBadRequest},
		{"log beyond head", http.MethodGet, fmt.Sprintf("/v1/log?from=%d", head+2), "", http.StatusBadRequest, CodeBadRequest},
		{"replication wrong method", http.MethodPost, "/v1/replication", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"checkpoint wrong method", http.MethodGet, "/v1/checkpoint", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"health wrong method", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, env, resp := doReq(t, ts.Client(), tc.method, ts.URL+tc.path, tc.body)
			if status != tc.wantStatus || env.Code != tc.wantCode {
				t.Fatalf("got %d code %q, want %d code %q (error: %s)", status, env.Code, tc.wantStatus, tc.wantCode, env.Error)
			}
			if env.Error == "" {
				t.Fatal("error envelope kept no human-readable message")
			}
			if status == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
		})
	}

	t.Run("read_only", func(t *testing.T) {
		rts, _, _, _ := newTestServer(t, 333, Options{ReadOnly: true})
		status, env, _ := doReq(t, rts.Client(), http.MethodPost, rts.URL+"/v1/update", `{"op":"add_site","node":1}`)
		if status != http.StatusForbidden || env.Code != CodeReadOnly {
			t.Fatalf("read-only update: %d %q", status, env.Code)
		}
	})

	t.Run("draining", func(t *testing.T) {
		srv.SetDraining(true)
		defer srv.SetDraining(false)
		status, env, resp := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", "")
		if status != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("draining healthz: %d, Retry-After %q", status, resp.Header.Get("Retry-After"))
		}
		var h healthResponse
		_, body := postJSONGet(t, ts.Client(), ts.URL+"/healthz")
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if h.Code != CodeDraining {
			t.Fatalf("draining healthz code %q", h.Code)
		}
		_ = env
	})

	t.Run("log_compacted", func(t *testing.T) {
		// Tiny segments so compaction genuinely deletes early history.
		cts, ceng, clog := newPrimary(t, 337, wal.Options{SegmentBytes: 64})
		driveUpdates(t, cts, ceng, 6)
		if _, err := clog.Compact(ceng.LSN() - 1); err != nil {
			t.Fatal(err)
		}
		status, env, _ := doReq(t, cts.Client(), http.MethodGet, cts.URL+"/v1/log?from=1", "")
		if status != http.StatusGone || env.Code != CodeLogCompacted {
			t.Fatalf("compacted log read: %d %q", status, env.Code)
		}
	})

	t.Run("quorum_timeout", func(t *testing.T) {
		qts, _, qeng, _ := newReplServer(t, 339, func(o *Options) {
			o.Quorum = 1
			o.QuorumTimeout = 100 * time.Millisecond
		})
		node := freeNode(t, qeng)
		status, env, resp := doReq(t, qts.Client(), http.MethodPost, qts.URL+"/v1/update",
			fmt.Sprintf(`{"op":"add_site","node":%d}`, node))
		if status != http.StatusServiceUnavailable || env.Code != CodeQuorumTimeout {
			t.Fatalf("quorum timeout: %d %q (%s)", status, env.Code, env.Error)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("quorum timeout 503 without Retry-After")
		}
		// The mutation applied locally despite the failed ack.
		if qeng.LSN() == 0 {
			t.Fatal("quorum-timeout update did not apply locally")
		}
	})

	t.Run("fenced", func(t *testing.T) {
		fts, _, feng, flog := newReplServer(t, 341, nil)
		if err := feng.BeginEpoch(1); err != nil {
			t.Fatal(err)
		}
		// A peer presenting a higher epoch on the tail surface deposes us.
		status, _, _ := doReq(t, fts.Client(), http.MethodGet,
			fmt.Sprintf("%s/v1/log?from=%d&peer_epoch=5", fts.URL, flog.HeadLSN()+1), "")
		if status != http.StatusOK {
			t.Fatalf("tail with peer_epoch: %d", status)
		}
		node := freeNode(t, feng)
		status, env, _ := doReq(t, fts.Client(), http.MethodPost, fts.URL+"/v1/update",
			fmt.Sprintf(`{"op":"add_site","node":%d}`, node))
		if status != http.StatusConflict || env.Code != CodeFenced {
			t.Fatalf("fenced update: %d %q (%s)", status, env.Code, env.Error)
		}
	})
}

// postJSONGet is a tiny GET helper mirroring postJSON's return shape.
func postJSONGet(t testing.TB, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// freeNode finds a graph node that is not currently a candidate site.
func freeNode(t testing.TB, eng *engine.Engine) int {
	t.Helper()
	inst := eng.Index().TopsInstance()
	for v := 0; v < inst.G.NumNodes(); v++ {
		if _, ok := inst.SiteIDOf(roadnet.NodeID(v)); !ok {
			return v
		}
	}
	t.Fatal("no free node")
	return -1
}

// TestLongPollLogTailing pins the /v1/log?wait= semantics: park until a
// commit, return at the wait deadline, and wake on drain.
func TestLongPollLogTailing(t *testing.T) {
	ts, srv, eng, log := newReplServer(t, 347, nil)
	driveUpdates(t, ts, eng, 1)
	head := log.HeadLSN()

	t.Run("early return on append", func(t *testing.T) {
		type result struct {
			status  int
			n       int
			head    string
			elapsed time.Duration
		}
		done := make(chan result, 1)
		go func() {
			t0 := time.Now()
			resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/log?from=%d&wait=30s", ts.URL, head+1))
			if err != nil {
				done <- result{status: -1}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			done <- result{resp.StatusCode, len(body), resp.Header.Get("X-Netclus-Head-LSN"), time.Since(t0)}
		}()
		time.Sleep(100 * time.Millisecond) // let the request park
		driveUpdates(t, ts, eng, 1)
		select {
		case r := <-done:
			if r.status != http.StatusOK || r.n == 0 {
				t.Fatalf("parked read returned %d with %d bytes", r.status, r.n)
			}
			if r.head != strconv.FormatUint(head+1, 10) {
				t.Fatalf("head header %s, want %d", r.head, head+1)
			}
			if r.elapsed > 10*time.Second {
				t.Fatalf("append did not cut the park short (%v)", r.elapsed)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("parked long-poll never returned after an append")
		}
		head = log.HeadLSN()
	})

	t.Run("honors wait timeout", func(t *testing.T) {
		t0 := time.Now()
		status, body := postJSONGet(t, ts.Client(), fmt.Sprintf("%s/v1/log?from=%d&wait=150ms", ts.URL, head+1))
		elapsed := time.Since(t0)
		if status != http.StatusOK || len(body) != 0 {
			t.Fatalf("timed-out long-poll: %d, %d bytes", status, len(body))
		}
		if elapsed < 100*time.Millisecond {
			t.Fatalf("caught-up read returned in %v; the wait was not honored", elapsed)
		}
	})

	t.Run("drain wakes parked waiters", func(t *testing.T) {
		done := make(chan time.Duration, 1)
		go func() {
			t0 := time.Now()
			resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/log?from=%d&wait=30s", ts.URL, head+1))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- time.Since(t0)
		}()
		time.Sleep(100 * time.Millisecond)
		srv.SetDraining(true)
		defer srv.SetDraining(false)
		select {
		case elapsed := <-done:
			if elapsed > 10*time.Second {
				t.Fatalf("drain did not wake the parked waiter (%v)", elapsed)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("parked long-poll survived the drain")
		}
	})
}

// TestQuorumAckRoundTrip runs a real follower against a quorum-1 primary:
// updates block until the follower's durable ack arrives, and the
// replication resource shows the whole topology.
func TestQuorumAckRoundTrip(t *testing.T) {
	const seed = 353
	ts, _, eng, log := newReplServer(t, seed, func(o *Options) {
		o.Quorum = 1
		o.QuorumTimeout = 30 * time.Second
	})

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
	fol, err := NewFollower(ts.URL, feng, flog, FollowerOptions{
		Poll: 10 * time.Millisecond, Wait: 2 * time.Second, ID: "quorum-f1", Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	folDone := make(chan struct{})
	go func() {
		defer close(folDone)
		fol.Run(ctx)
	}()

	node := freeNode(t, eng)
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, node))
	if status != http.StatusOK {
		t.Fatalf("quorum update: %d %s", status, body)
	}
	var upd wal.UpdateAck
	if err := json.Unmarshal(body, &upd); err != nil {
		t.Fatal(err)
	}
	if !upd.OK || !upd.Quorum || upd.LSN != log.HeadLSN() {
		t.Fatalf("quorum ack envelope: %+v (head %d)", upd, log.HeadLSN())
	}

	// The replication resource reports the follower's durable position.
	var repl replicationResponse
	_, rbody := postJSONGet(t, ts.Client(), ts.URL+"/v1/replication")
	if err := json.Unmarshal(rbody, &repl); err != nil {
		t.Fatal(err)
	}
	if repl.Role != "primary" || repl.ReadOnly {
		t.Fatalf("primary replication resource: %+v", repl)
	}
	if repl.Quorum == nil || repl.Quorum.Required != 1 {
		t.Fatalf("quorum config missing: %+v", repl.Quorum)
	}
	if len(repl.Followers) != 1 || repl.Followers[0].ID != "quorum-f1" {
		t.Fatalf("followers table: %+v", repl.Followers)
	}
	if repl.Followers[0].AckedLSN != log.HeadLSN() || repl.CommittedLSN != log.HeadLSN() {
		t.Fatalf("acked %d / committed %d, head %d", repl.Followers[0].AckedLSN, repl.CommittedLSN, log.HeadLSN())
	}
	// The follower's ack position was fsynced into its local log first.
	if flog.HeadLSN() != log.HeadLSN() {
		t.Fatalf("follower log head %d, primary %d", flog.HeadLSN(), log.HeadLSN())
	}

	cancel()
	<-folDone
}

// TestPromoteAndFencing drives the whole failover protocol in-process:
// a converged follower promotes, opens epoch+1, starts accepting writes,
// and the deposed primary is fenced the moment it hears the new epoch.
func TestPromoteAndFencing(t *testing.T) {
	const seed = 359
	ts, _, eng, _ := newReplServer(t, seed, nil)
	if err := eng.BeginEpoch(1); err != nil {
		t.Fatal(err)
	}
	driveUpdates(t, ts, eng, 5)

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
	fol, err := NewFollower(ts.URL, feng, flog, FollowerOptions{Wait: -1, ID: "promote-f1", Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if feng.LSN() != eng.LSN() || feng.Epoch() != 1 {
		t.Fatalf("follower at LSN %d epoch %d, primary LSN %d", feng.LSN(), feng.Epoch(), eng.LSN())
	}

	promote := func(ctx context.Context) (uint64, error) {
		if err := feng.AttachWAL(flog); err != nil {
			return 0, err
		}
		epoch := feng.Epoch() + 1
		if err := feng.BeginEpoch(epoch); err != nil {
			return 0, err
		}
		return epoch, nil
	}
	fsrv, err := New(feng, Options{ReadOnly: true, Replication: fol.Status, Log: flog, Promote: promote})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	// Promote: 200, primary role, epoch 2; writes open up.
	status, body := postJSON(t, fts.Client(), fts.URL+"/v1/promote", "")
	if status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, body)
	}
	var pr promoteResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.OK || pr.Role != "primary" || pr.Epoch != 2 {
		t.Fatalf("promote response: %+v", pr)
	}
	node := freeNode(t, feng)
	status, body = postJSON(t, fts.Client(), fts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, node))
	if status != http.StatusOK {
		t.Fatalf("promoted update: %d %s", status, body)
	}
	// A second promote answers conflict: this node is already primary.
	status, body = postJSON(t, fts.Client(), fts.URL+"/v1/promote", "")
	var env ErrorResponse
	_ = json.Unmarshal(body, &env)
	if status != http.StatusConflict || env.Code != CodeConflict {
		t.Fatalf("double promote: %d %q", status, env.Code)
	}
	var repl replicationResponse
	_, rbody := postJSONGet(t, fts.Client(), fts.URL+"/v1/replication")
	if err := json.Unmarshal(rbody, &repl); err != nil {
		t.Fatal(err)
	}
	if repl.Role != "primary" || repl.Epoch != 2 {
		t.Fatalf("promoted replication resource: %+v", repl)
	}

	// The promoted node refuses the deposed primary's stream outright.
	if _, err := fol.Poll(context.Background()); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("promoted follower tailing the old primary = %v, want ErrFenced", err)
	}

	// And the deposed primary is fenced as soon as any peer presents the
	// new epoch on its replication surface.
	status, _, _ = doReq(t, ts.Client(), http.MethodGet, fmt.Sprintf("%s/v1/log?from=%d&peer_epoch=2", ts.URL, eng.LSN()+1), "")
	if status != http.StatusOK {
		t.Fatalf("fencing tail request: %d", status)
	}
	node = freeNode(t, eng)
	status, body = postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, node))
	_ = json.Unmarshal(body, &env)
	if status != http.StatusConflict || env.Code != CodeFenced {
		t.Fatalf("deposed primary update: %d %q (%s)", status, env.Code, env.Error)
	}
	_, rbody = postJSONGet(t, ts.Client(), ts.URL+"/v1/replication")
	if err := json.Unmarshal(rbody, &repl); err != nil {
		t.Fatal(err)
	}
	if repl.FencedBy != 2 || repl.Epoch != 1 {
		t.Fatalf("deposed replication resource: %+v", repl)
	}
}

// stubApplier is a minimal wal.Applier for follower-health tests that do
// not need a real engine.
type stubApplier struct{ lsn atomic.Uint64 }

func (s *stubApplier) ApplyRecord(rec wal.Record) error { s.lsn.Store(rec.LSN); return nil }
func (s *stubApplier) LSN() uint64                      { return s.lsn.Load() }

// TestFollowerUnhealthyLatchesHealthz: consecutive tail failures flip the
// replica's /healthz to 503 tail_stalled, and one successful round clears
// the latch.
func TestFollowerUnhealthyLatchesHealthz(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Netclus-Head-LSN", "0")
		w.WriteHeader(http.StatusOK)
	}))
	defer primary.Close()

	app := &stubApplier{}
	fol, err := NewFollower(primary.URL, app, nil, FollowerOptions{
		Wait: -1, UnhealthyAfter: 2, ID: "sick-f1", Client: primary.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := fol.Poll(ctx); err == nil {
		t.Fatal("poll against a broken primary succeeded")
	}
	if st := fol.Status(); st.Unhealthy || st.ConsecutiveFailures != 1 {
		t.Fatalf("status after one failure: %+v", st)
	}
	if _, err := fol.Poll(ctx); err == nil {
		t.Fatal("second poll succeeded")
	}
	st := fol.Status()
	if !st.Unhealthy || st.ConsecutiveFailures != 2 {
		t.Fatalf("status after two failures: %+v", st)
	}

	// The latched status flips the serving replica's /healthz.
	idx, _ := buildFixture(t, 367)
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{ReadOnly: true, Replication: fol.Status})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)
	defer hts.Close()
	status, body := postJSONGet(t, hts.Client(), hts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || h.Code != CodeTailStalled {
		t.Fatalf("stalled replica healthz: %d %q", status, h.Code)
	}

	// One good round heals the replica.
	broken.Store(false)
	if _, err := fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	if st := fol.Status(); st.Unhealthy || st.ConsecutiveFailures != 0 {
		t.Fatalf("status after recovery: %+v", st)
	}
	status, _ = postJSONGet(t, hts.Client(), hts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("recovered replica healthz: %d", status)
	}
}

// overtakenEngine is a primary under concurrent writers, as one handler
// sees it: by the time its Apply returns, the log head has moved past the
// record this call committed (other is how far). It reports its own LSN.
type overtakenEngine struct {
	Engine
	log   *wal.Log
	other int
}

func (e *overtakenEngine) Apply(m wal.Mutation) (wal.Applied, error) {
	a, err := e.Engine.Apply(m)
	for i := 0; i < e.other && err == nil; i++ {
		_, err = e.log.Append(wal.KindDeleteSite, wal.NodeBody(int64(i))) // some later writer's record
	}
	return a, err
}

// TestAckReportsOwnLSN: the lsn in a write's ack, and the LSN a -quorum ack
// waits on, are the ones Apply returned for this write — not the log head
// read after the engine lock was released, which under concurrent writers
// is some later mutation's (and made -quorum wait on a record this client
// never sent). Both /v1/update and the /v1/ingest window wait are covered.
func TestAckReportsOwnLSN(t *testing.T) {
	const seed = 347
	idx, _ := buildFixture(t, seed)
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	srv, err := New(&overtakenEngine{Engine: eng, log: log, other: 3}, Options{
		Log: log, Quorum: 1, QuorumTimeout: 200 * time.Millisecond,
		Ingest: &ingest.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The one follower has durably acknowledged exactly the next record.
	srv.acks.record("f1", 1)
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, freeNode(t, eng)))
	var upd wal.UpdateAck
	if err := json.Unmarshal(body, &upd); err != nil || status != http.StatusOK {
		t.Fatalf("update: status %d body %s", status, body)
	}
	if upd.LSN != 1 || !upd.Quorum || log.HeadLSN() != 4 {
		t.Fatalf("ack %+v with the log head at %d: want this write's lsn 1, quorum met", upd, log.HeadLSN())
	}

	// Ingest: the window's verdicts wait on the window's record (LSN 5).
	srv.acks.record("f1", 5)
	resp, verdicts := postNDJSON(t, ts.URL, ingestFeed(t, ingestFixtureCity(t, seed), 2, seed+100))
	if resp.StatusCode != http.StatusOK || len(verdicts) != 2 {
		t.Fatalf("ingest: status %d, %d verdicts", resp.StatusCode, len(verdicts))
	}
	for _, v := range verdicts {
		if v.Code != "" {
			t.Fatalf("ingest verdict %+v: the window's own LSN was acknowledged", v)
		}
	}
}
