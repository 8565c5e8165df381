package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"netclus/internal/shard"
)

// TestServeShardedEngine boots the HTTP layer over a scatter-gather sharded
// engine and drives every endpoint: the server must be engine-agnostic, and
// /statsz must expose the per-shard counter blocks (sites, scatter calls,
// queue depths) the sharded engine adds.
func TestServeShardedEngine(t *testing.T) {
	sh, err := shard.Build(buildInstance(t, 77), shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := ts.Client()

	// Query.
	status, body := postJSON(t, client, ts.URL+"/v1/query", `{"k":5,"tau":0.8}`)
	if status != http.StatusOK {
		t.Fatalf("/v1/query status %d: %s", status, body)
	}
	var qr struct {
		Sites []int64 `json:"sites"`
	}
	if err := json.Unmarshal(body, &qr); err != nil || len(qr.Sites) == 0 {
		t.Fatalf("query body %s (err %v)", body, err)
	}

	// Update: delete one served site, then the same query must still work.
	status, body = postJSON(t, client, ts.URL+"/v1/update",
		fmt.Sprintf(`{"op":"delete_site","node":%d}`, qr.Sites[0]))
	if status != http.StatusOK {
		t.Fatalf("/v1/update status %d: %s", status, body)
	}
	if status, body = postJSON(t, client, ts.URL+"/v1/query", `{"k":5,"tau":0.8}`); status != http.StatusOK {
		t.Fatalf("post-update query status %d: %s", status, body)
	}

	// Snapshot: the sharded container streams over HTTP.
	resp, err := client.Post(ts.URL+"/v1/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := readAll(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/snapshot status %d err %v", resp.StatusCode, err)
	}
	if len(snap) < 16 || string(snap[0:2]) != "NC" {
		t.Fatalf("snapshot container header missing (%d bytes)", len(snap))
	}

	// Stats: per-shard blocks present and coherent.
	resp, err = client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Shards []shard.Stat `json:"shards"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("statsz decode: %v (%s)", err, raw)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("statsz lists %d shards, want 3: %s", len(st.Shards), raw)
	}
	totalSites, totalScatters := 0, uint64(0)
	for _, ss := range st.Shards {
		totalSites += ss.Sites
		totalScatters += ss.Scatters
		if ss.QueueDepth != 0 {
			t.Fatalf("shard %d reports queue depth %d at rest", ss.Shard, ss.QueueDepth)
		}
	}
	if totalSites != 119 { // 120 minus the deleted one
		t.Fatalf("per-shard site counts sum to %d, want 119", totalSites)
	}
	if totalScatters == 0 {
		t.Fatal("no scatter calls recorded in statsz")
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
