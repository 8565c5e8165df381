package engine

import (
	"bytes"
	"context"
	"testing"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// TestEngineWarmStart exercises the full warm-start path: build → snapshot
// → load → serve through a fresh Engine. The loaded engine must answer
// exactly like the cold one, and a §6 mutation through it must reach the
// loaded index's cover cache (no stale cover can serve a post-update query).
func TestEngineWarmStart(t *testing.T) {
	idx, inst, city := buildFixture(t, 71)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadIndex(bytes.NewReader(buf.Bytes()), inst)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(loaded, Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := core.QueryOptions{K: 5, Pref: tops.Binary(0.8)}
	a, err := cold.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.EstimatedUtility != b.EstimatedUtility || len(a.Sites) != len(b.Sites) {
		t.Fatalf("warm engine answers differently: %+v vs %+v", a, b)
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs between cold and warm engine", i)
		}
	}

	// The first query memoized a cover; a trajectory add keeps it, and the
	// next query appends the new trajectory's entries to it without sweeping
	// a row, answering what a fresh fill answers.
	st := warm.Stats()
	if st.CoverEntries == 0 {
		t.Fatal("warm engine did not memoize a cover")
	}
	extra := extraTrajectories(t, city, 1, 991)
	if _, err := warm.AddTrajectory(extra[0]); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.CoverEntries != 1 {
		t.Fatalf("update through warm engine left %d covers, want the memoized one", st.CoverEntries)
	}
	before := warm.Stats()
	got, err := warm.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after := warm.Stats()
	if after.CoverMisses != before.CoverMisses || after.CoverRowsSwept != before.CoverRowsSwept || after.CoverRevalidated != before.CoverRevalidated+1 {
		t.Fatalf("post-update query: misses %d -> %d, rows swept %d -> %d, revalidated %d -> %d; want one patch sweeping no row",
			before.CoverMisses, after.CoverMisses, before.CoverRowsSwept, after.CoverRowsSwept, before.CoverRevalidated, after.CoverRevalidated)
	}
	want, err := loaded.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want, "patched cover vs fresh fill")
}

// TestEngineSnapshotDuringTraffic checkpoints a served index while queries
// and mutations are in flight: Snapshot takes the read lock, so under the
// race detector this pins the absence of data races between checkpointing
// and updates, and every written snapshot must load cleanly (a torn write
// would fail the codec's checksum or validation).
func TestEngineSnapshotDuringTraffic(t *testing.T) {
	idx, inst, city := buildFixture(t, 73)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	extra := extraTrajectories(t, city, 8, 997)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tr := range extra {
			if _, err := eng.AddTrajectory(tr); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.Query(context.Background(), core.QueryOptions{K: 3, Pref: tops.Binary(0.8)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var lastGood []byte
	for i := 0; i < 6; i++ {
		var buf bytes.Buffer
		if _, err := eng.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		lastGood = buf.Bytes()
	}
	<-done
	// The final snapshot must re-attach to the (now mutated) instance.
	if _, err := core.ReadIndex(bytes.NewReader(lastGood), inst); err != nil {
		// Mid-traffic snapshots can predate the last mutations; only the
		// fingerprint of the final state is guaranteed to match. Take one
		// more quiescent snapshot and require it to load.
		var buf bytes.Buffer
		if _, err := eng.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := core.ReadIndex(bytes.NewReader(buf.Bytes()), inst); err != nil {
			t.Fatalf("quiescent snapshot does not load: %v", err)
		}
	}
}
