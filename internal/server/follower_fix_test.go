package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/wal"
)

// TestFollowerClientTimeoutOutlastsLongPoll pins the client-timeout/Wait
// contract: the default client must ride out a full long-poll park (Wait
// plus headroom), and a caller-supplied client too short for the requested
// park clamps Wait instead of guaranteeing that every parked /v1/log
// request dies client-side and latches a healthy replica unhealthy.
func TestFollowerClientTimeoutOutlastsLongPoll(t *testing.T) {
	cases := []struct {
		name        string
		opts        FollowerOptions
		wantTimeout time.Duration // resulting o.Client.Timeout
		wantWait    time.Duration // resulting o.Wait
	}{
		{
			name:        "default wait gets default client",
			opts:        FollowerOptions{},
			wantTimeout: 30 * time.Second, // 10s wait + 10s headroom < 30s floor
			wantWait:    10 * time.Second,
		},
		{
			name:        "long wait stretches the default client",
			opts:        FollowerOptions{Wait: 60 * time.Second},
			wantTimeout: 70 * time.Second,
			wantWait:    60 * time.Second,
		},
		{
			name:        "wait just over the floor stretches it",
			opts:        FollowerOptions{Wait: 25 * time.Second},
			wantTimeout: 35 * time.Second,
			wantWait:    25 * time.Second,
		},
		{
			name:        "polling mode keeps the 30s default",
			opts:        FollowerOptions{Wait: -1},
			wantTimeout: 30 * time.Second,
			wantWait:    0,
		},
		{
			name:        "short caller client clamps wait under it",
			opts:        FollowerOptions{Wait: 60 * time.Second, Client: &http.Client{Timeout: 30 * time.Second}},
			wantTimeout: 30 * time.Second,
			wantWait:    20 * time.Second,
		},
		{
			name:        "tiny caller client still long-polls below it",
			opts:        FollowerOptions{Wait: 60 * time.Second, Client: &http.Client{Timeout: 5 * time.Second}},
			wantTimeout: 5 * time.Second,
			wantWait:    2500 * time.Millisecond,
		},
		{
			name:        "caller client without timeout is left alone",
			opts:        FollowerOptions{Wait: 60 * time.Second, Client: &http.Client{}},
			wantTimeout: 0,
			wantWait:    60 * time.Second,
		},
		{
			name:        "ample caller client is left alone",
			opts:        FollowerOptions{Wait: 10 * time.Second, Client: &http.Client{Timeout: time.Minute}},
			wantTimeout: time.Minute,
			wantWait:    10 * time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.opts.withDefaults()
			if got.Client.Timeout != tc.wantTimeout {
				t.Errorf("client timeout %v, want %v", got.Client.Timeout, tc.wantTimeout)
			}
			if got.Wait != tc.wantWait {
				t.Errorf("wait %v, want %v", got.Wait, tc.wantWait)
			}
			if got.Wait > 0 && got.Client.Timeout > 0 && got.Client.Timeout <= got.Wait {
				t.Errorf("invariant broken: client timeout %v does not outlast wait %v", got.Client.Timeout, got.Wait)
			}
		})
	}
}

// TestFollowerBackoffSchedule pins the retry schedule Run applies after
// consecutive poll failures: poll, 2·poll, 4·poll, … capped at max —
// instead of hammering a struggling primary at full cadence forever.
func TestFollowerBackoffSchedule(t *testing.T) {
	cases := []struct {
		poll time.Duration
		n    int
		max  time.Duration
		want time.Duration
	}{
		{500 * time.Millisecond, 1, 30 * time.Second, 500 * time.Millisecond},
		{500 * time.Millisecond, 2, 30 * time.Second, time.Second},
		{500 * time.Millisecond, 3, 30 * time.Second, 2 * time.Second},
		{500 * time.Millisecond, 6, 30 * time.Second, 16 * time.Second},
		{500 * time.Millisecond, 7, 30 * time.Second, 30 * time.Second},
		{500 * time.Millisecond, 100, 30 * time.Second, 30 * time.Second},
		{time.Minute, 1, 30 * time.Second, 30 * time.Second},
		{10 * time.Millisecond, 4, 25 * time.Millisecond, 25 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := backoffDelay(tc.poll, tc.n, tc.max); got != tc.want {
			t.Errorf("backoffDelay(%v, %d, %v) = %v, want %v", tc.poll, tc.n, tc.max, got, tc.want)
		}
	}
}

// TestFollowerStatusDivergedNotStaleLag pins the ahead-of-primary report:
// when the primary's head is behind the replica's LSN (lost acknowledged
// history), Status must report zero lag and the diverged flag — not a
// stale or underflowed lag that masquerades as catch-up work.
func TestFollowerStatusDivergedNotStaleLag(t *testing.T) {
	idx, _ := buildFixture(t, 907)
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
	driveEngineUpdates(t, eng, 3) // replica state at LSN 3

	// A "primary" whose head is behind the replica: answers an empty 200
	// stream with a low head header (what a primary that lost its
	// acknowledged tail looks like to a tail request beyond its head).
	lost := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Netclus-Head-LSN", "1")
		w.WriteHeader(http.StatusOK)
	}))
	defer lost.Close()

	fol, err := NewFollower(lost.URL, eng, nil, FollowerOptions{Wait: -1, Client: lost.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := fol.Status()
	if st.LSN != 3 || st.PrimaryLSN != 1 {
		t.Fatalf("fixture drifted: LSN %d (want 3), PrimaryLSN %d (want 1)", st.LSN, st.PrimaryLSN)
	}
	if st.Lag != 0 {
		t.Fatalf("ahead-of-primary lag = %d, want 0", st.Lag)
	}
	if !st.Diverged {
		t.Fatal("ahead-of-primary status must set diverged")
	}
	// The flag must survive the JSON surface.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire["diverged"] != true {
		t.Fatalf("diverged missing from wire form: %s", raw)
	}
}

// driveEngineUpdates applies n site additions directly through the engine
// (logging them when a WAL is attached).
func driveEngineUpdates(t *testing.T, eng *engine.Engine, n int) {
	t.Helper()
	inst := eng.Index().TopsInstance()
	added := 0
	for v := 0; v < inst.G.NumNodes() && added < n; v++ {
		if _, ok := inst.SiteIDOf(roadnet.NodeID(v)); ok {
			continue
		}
		if err := eng.AddSite(roadnet.NodeID(v)); err != nil {
			t.Fatal(err)
		}
		added++
	}
	if added < n {
		t.Fatalf("only %d free nodes for %d updates", added, n)
	}
}

// TestFollowerParksOnUnrecoverableAndWakesOnRetarget pins two fixes at
// once: Run must park (not spin at poll cadence) on an error re-polling
// can never fix, and Retarget must wake it against the new primary
// without a process restart.
func TestFollowerParksOnUnrecoverableAndWakesOnRetarget(t *testing.T) {
	const seed = 911
	ts, primaryEng, _ := newPrimary(t, seed, wal.Options{})
	driveUpdates(t, ts, primaryEng, 5)

	// A primary that compacted past everyone: every tail request answers
	// 410 Gone — ErrNeedBootstrap, unrecoverable by re-polling.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Netclus-Head-LSN", "100")
		w.WriteHeader(http.StatusGone)
	}))
	defer gone.Close()

	fidx, _ := buildFixture(t, seed)
	feng, err := engine.New(fidx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(gone.URL, feng, nil, FollowerOptions{Poll: time.Millisecond, Wait: -1, Client: &http.Client{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fol.Run(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for fol.Status().NeedsBootstrap == false {
		if time.Now().After(deadline) {
			t.Fatal("follower never latched needs_bootstrap")
		}
		time.Sleep(time.Millisecond)
	}
	// Parked: at 1ms poll cadence a spinning loop would add hundreds of
	// poll errors over 150ms; a parked one adds none.
	base := fol.Status().PollErrors
	time.Sleep(150 * time.Millisecond)
	if grew := fol.Status().PollErrors - base; grew > 2 {
		t.Fatalf("parked follower issued %d more polls against an unrecoverable primary", grew)
	}

	// Re-point at the live primary: the loop must wake, clear the latch,
	// and converge — no restart.
	if err := fol.Retarget(ts.URL); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for feng.LSN() != primaryEng.LSN() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d after retarget, primary at %d (status %+v)",
				feng.LSN(), primaryEng.LSN(), fol.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := fol.Status()
	if st.Primary != ts.URL {
		t.Fatalf("status primary %q, want %q", st.Primary, ts.URL)
	}
	if st.NeedsBootstrap || st.Unhealthy {
		t.Fatalf("latches survived retarget: %+v", st)
	}
	cancel()
	<-done

	// Retarget validation: relative or empty URLs are rejected.
	for _, bad := range []string{"", "not-a-url", "/just/a/path"} {
		if err := fol.Retarget(bad); err == nil {
			t.Errorf("Retarget(%q) accepted", bad)
		}
	}
}

// TestFollowEndpoint pins POST /v1/follow: wired to Follower.Retarget on
// replicas, rejected with 409 on a node serving as primary, strict about
// bodies.
func TestFollowEndpoint(t *testing.T) {
	idx, _ := buildFixture(t, 919)
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower("http://old-primary:8080", eng, nil, FollowerOptions{Wait: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{ReadOnly: true, Replication: fol.Status, Retarget: fol.Retarget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/follow", `{"primary":"http://new-primary:9090"}`)
	if status != http.StatusOK {
		t.Fatalf("/v1/follow status %d: %s", status, body)
	}
	if got := fol.Status().Primary; got != "http://new-primary:9090" {
		t.Fatalf("follower primary %q after /v1/follow", got)
	}
	status, _ = postJSON(t, ts.Client(), ts.URL+"/v1/follow", `{"primary":"nope"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad retarget URL status %d, want 400", status)
	}
	status, _ = postJSON(t, ts.Client(), ts.URL+"/v1/follow", `{"primary":"http://x:1","extra":true}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field status %d, want 400", status)
	}

	// On a node currently serving as primary the endpoint is a conflict:
	// re-pointing the tail loop of a non-follower makes no sense.
	psrv, err := New(eng, Options{Retarget: fol.Retarget})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(psrv)
	defer pts.Close()
	status, body = postJSON(t, pts.Client(), pts.URL+"/v1/follow", `{"primary":"http://new-primary:9090"}`)
	if status != http.StatusConflict {
		t.Fatalf("primary /v1/follow status %d (%s), want 409", status, body)
	}
}
