package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"netclus/internal/engine"
)

// Decode-side allocation gates: the request decoders run on every HTTP
// query, so their allocation counts are pinned to small constants. The
// bounds are deliberately loose absolute ceilings — the point is to catch a
// regression that makes decoding allocate per-site or per-trajectory (or
// quadratically in the batch), not to chase every encoding/json internal.

func TestDecodeQueryAllocConstant(t *testing.T) {
	body := []byte(`{"k":5,"tau":0.8,"timeout_ms":60000}`)
	lim := Limits{}.withDefaults()
	// Warm-up + correctness check outside the measured loop.
	if _, err := DecodeQuery(body, lim); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := DecodeQuery(body, lim); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 24
	if avg > maxAllocs {
		t.Fatalf("DecodeQuery allocates %.1f objects per call, want <= %d", avg, maxAllocs)
	}
}

func TestDecodeBatchAllocConstant(t *testing.T) {
	// Eight homogeneous queries, the shape of a k/τ sweep. The per-item
	// cost must stay a small constant, so the whole batch decode is
	// bounded by base + items*perItem.
	body := []byte(`{"queries":[
		{"k":5,"tau":0.8},{"k":3,"tau":0.4},{"k":7,"tau":1.6},{"k":5,"tau":0.8},
		{"k":2,"tau":3.2},{"k":5,"tau":0.8},{"k":4,"tau":0.4},{"k":6,"tau":1.6}
	],"timeout_ms":60000}`)
	lim := Limits{}.withDefaults()
	opts, itemErrs, _, err := DecodeBatch(body, lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 8 {
		t.Fatalf("decoded %d queries, want 8", len(opts))
	}
	for i, e := range itemErrs {
		if e != nil {
			t.Fatalf("item %d: %v", i, e)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, _, err := DecodeBatch(body, lim); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 120 // base + 8 items * small per-item constant
	if avg > maxAllocs {
		t.Fatalf("DecodeBatch allocates %.1f objects per call for 8 items, want <= %d", avg, maxAllocs)
	}
}

// TestServeQueryAllocs gates the request edge on the serve_hot path: a
// cached /v1/query through Server.ServeHTTP — trace id, method gate, body
// cap, route block, decode, engine, encode — allocates at most 42 objects,
// the recorder's and the request's own included.
func TestServeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, err := engine.New(benchFixture(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"k":5,"tau":0.8,"timeout_ms":60000}`)
	serve := func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // fills the cover
	avg := testing.AllocsPerRun(200, serve)
	const maxAllocs = 42
	if avg > maxAllocs {
		t.Fatalf("a cached /v1/query allocates %.1f objects, want <= %d", avg, maxAllocs)
	}
	t.Logf("%.1f allocs per cached /v1/query", avg)
}
