package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"netclus/internal/shard"
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
