package server

import (
	"testing"
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
