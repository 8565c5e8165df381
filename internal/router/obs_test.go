// Router observability tests: /metrics exposition validity and end-to-end
// trace propagation — a trace id supplied at the router edge must reach the
// shard member's structured log.

package router

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"netclus/internal/obs"
	"netclus/internal/server"
	"netclus/internal/shard"
)

// lockedBuffer makes a bytes.Buffer safe to read from the test goroutine
// while handler goroutines log into it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRouterMetricsExposition(t *testing.T) {
	const seed, n = 1601, 2
	var urls []string
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		urls = append(urls, ts.URL)
	}
	r, err := New(Options{Shards: [][]string{{urls[0]}, {urls[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	if code, body := postJSON(t, rts.Client(), rts.URL+"/v1/query", `{"k":3,"tau":1.0}`); code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, body)
	}

	resp, err := rts.Client().Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(string(body)); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		`netclus_build_info{`,
		`netclus_router_shards{role="router"} 2`,
		`netclus_router_queries_total{`,
		`netclus_router_shard_members{`,
		`netclus_router_scatter_seconds_bucket{`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestRouterTracePropagation supplies a trace id at the router edge and
// follows it down the stack: echoed on the router's response and error
// envelope, and visible in the shard member's structured debug log for the
// cover fetch the router fanned out.
func TestRouterTracePropagation(t *testing.T) {
	const seed, n = 1607, 2
	var memberLogs lockedBuffer
	logger, err := obs.NewLogger(&memberLogs, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		m, err := shard.BuildMember(memInst, j, shard.Options{Shards: n, Build: fixtureBuild})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(m, server.Options{Member: m, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	r, err := New(Options{Shards: [][]string{{urls[0]}, {urls[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	supplied := obs.NewTraceID()
	req, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/query", strings.NewReader(`{"k":3,"tau":1.0}`))
	req.Header.Set(obs.TraceHeader, supplied)
	resp, err := rts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != supplied {
		t.Fatalf("router trace header = %q, want the supplied %q", got, supplied)
	}

	// The member's "shard cover" debug record must carry the same id.
	found := false
	for _, line := range strings.Split(memberLogs.String(), "\n") {
		if !strings.Contains(line, "shard cover") {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("member log record is not JSON: %v\n%s", err, line)
		}
		if rec["trace_id"] == supplied {
			found = true
		}
	}
	if !found {
		t.Fatalf("supplied trace id %q never reached a member's structured log:\n%s", supplied, memberLogs.String())
	}

	// Error envelopes carry the id too.
	req, _ = http.NewRequest(http.MethodPost, rts.URL+"/v1/query", strings.NewReader(`{"k":0,"tau":1.0}`))
	req.Header.Set(obs.TraceHeader, supplied)
	resp, err = rts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status %d, want 400", resp.StatusCode)
	}
	var env struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope is not JSON: %v\n%s", err, body)
	}
	if env.TraceID != supplied {
		t.Fatalf("envelope trace_id = %q, want %q", env.TraceID, supplied)
	}
}
