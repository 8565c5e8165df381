package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// TestQueryCtxCancellation covers the request-deadline path: a canceled
// context must abort the query with the context's error, must never memoize
// a partial cover, and a later un-canceled query must succeed and fill the
// cache as if the canceled attempt never happened.
func TestQueryCtxCancellation(t *testing.T) {
	idx, _ := buildTestIndex(t, 131, false)
	pref := tops.Binary(0.8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.QueryCtx(ctx, QueryOptions{K: 5, Pref: pref}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query returned %v, want context.Canceled", err)
	}
	if st := idx.CoverCacheStats(); st.Entries != 0 {
		t.Fatalf("canceled query left %d cache entries", st.Entries)
	}
	if _, _, _, err := idx.CoverForCtx(ctx, idx.InstanceFor(pref.Tau), pref); !errors.Is(err, context.Canceled) {
		t.Fatalf("CoverForCtx under canceled ctx returned %v", err)
	}
	if st := idx.CoverCacheStats(); st.Entries != 0 {
		t.Fatalf("canceled cover fill left %d cache entries", st.Entries)
	}

	// The same query with a live context must now succeed and be cached.
	res, err := idx.QueryCtx(context.Background(), QueryOptions{K: 5, Pref: pref})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("live query returned no sites")
	}
	if _, _, swept, err := idx.CoverForCtx(context.Background(), idx.InstanceFor(pref.Tau), pref); err != nil {
		t.Fatal(err)
	} else if swept == 0 {
		// QueryCtx goes through RepCoverCtx (uncached); the first CoverForCtx
		// fill is this call, so a hit here would mean stale state survived.
		t.Log("cover already cached (unexpected but harmless)")
	}

	// Deadline that lapses mid-flight: run with an immediately-expiring
	// deadline; the checkpoints must surface DeadlineExceeded.
	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	if _, err := idx.QueryCtx(dctx, QueryOptions{K: 5, Pref: tops.Linear(1.2)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want DeadlineExceeded", err)
	}
}

// TestCoverForCtxWaiterSurvivesCanceledFiller pins the singleflight
// contract: a waiter with a live context must not inherit the filling
// request's cancellation — it fills in its turn and gets a cover.
func TestCoverForCtxWaiterSurvivesCanceledFiller(t *testing.T) {
	idx, _ := buildTestIndex(t, 137, false)
	pref := tops.Binary(0.8)
	p := idx.InstanceFor(pref.Tau)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// The doomed filler claims the entry first and fails...
	if _, _, _, err := idx.CoverForCtx(canceled, p, pref); !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed filler returned %v", err)
	}
	// ...and a live caller right after must succeed, not see the stale
	// cancellation. (Sequential here; in the concurrent interleaving the
	// waiter queues on the entry's fill lock, finds nothing published and
	// fills under its own context — the same code path, run under -race by
	// the engine's e2e tests.)
	cs, reps, _, err := idx.CoverForCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatalf("live caller inherited filler failure: %v", err)
	}
	if cs == nil || len(reps) == 0 {
		t.Fatal("live caller got an empty cover")
	}
}

// TestCanceledPatchKeepsPreviousCover extends the rule above to a memoized
// cover one site update, then one trajectory window, behind: a patch
// canceled by its filler's context publishes nothing and leaves the
// previous cover in place, so the next caller patches it (one stale row,
// then the window's tail) instead of paying a cold fill.
func TestCanceledPatchKeepsPreviousCover(t *testing.T) {
	idx, _ := buildTestIndex(t, 139, false)
	pref := tops.Linear(3.0)
	p := idx.InstanceFor(pref.Tau)
	_, reps, swept, err := idx.CoverForCtx(context.Background(), p, pref)
	if err != nil || swept != len(reps) {
		t.Fatalf("cold fill swept %d of %d rows, err %v", swept, len(reps), err)
	}

	// Move one representative of the rung: delete it where a runner-up
	// (at another distance) takes over.
	moved := false
	for ci := range idx.Instances[p].Clusters {
		cl := &idx.Instances[p].Clusters[ci]
		sites := 0
		for _, v := range cl.Members {
			if idx.isSite[v] {
				sites++
			}
		}
		if sites >= 2 {
			if err := idx.DeleteSite(cl.Rep); err != nil {
				t.Fatal(err)
			}
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fixture has no cluster with two sites on the rung")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := idx.CoverForCtx(canceled, p, pref); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled patch returned %v, want context.Canceled", err)
	}
	if st := idx.CoverCacheStats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("canceled patch left %d entries after %d misses, want the previous cover and the cold fill's one miss", st.Entries, st.Misses)
	}

	got, gotReps, swept, err := idx.CoverForCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	if swept != 1 {
		t.Fatalf("retry after a canceled patch swept %d rows, want the one stale row", swept)
	}
	want, wantReps, err := idx.RepCoverCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotReps) != len(wantReps) || got.Pairs() != want.Pairs() {
		t.Fatalf("patched cover has %d rows / %d pairs, fresh fill %d / %d", len(gotReps), got.Pairs(), len(wantReps), want.Pairs())
	}
	for s := range got.Weights {
		if math.Float64bits(got.Weights[s]) != math.Float64bits(want.Weights[s]) {
			t.Fatalf("patched cover's weight of row %d differs from a fresh fill", s)
		}
	}

	// The same for a trajectory patch: a window of adds and a delete, a
	// canceled lookup that publishes nothing, then a retry that appends to
	// the kept cover without sweeping a row.
	var window []*trajectory.Trajectory
	for i := 0; i < 8; i++ {
		window = append(window, idx.trajs.Get(trajectory.ID(i)))
	}
	if _, err := idx.AddTrajectories(window); err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteTrajectory(1); err != nil {
		t.Fatal(err)
	}
	before := idx.CoverCacheStats()
	if _, _, _, err := idx.CoverForCtx(canceled, p, pref); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled trajectory patch returned %v, want context.Canceled", err)
	}
	if st := idx.CoverCacheStats(); st.Entries != 1 || st.Misses != before.Misses || st.Revalidated != before.Revalidated {
		t.Fatalf("canceled trajectory patch left %d entries, %d misses, %d revalidations; want the previous cover and no count", st.Entries, st.Misses-before.Misses, st.Revalidated-before.Revalidated)
	}
	got, _, swept, err = idx.CoverForCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	if st := idx.CoverCacheStats(); swept != 0 || st.Revalidated != before.Revalidated+1 {
		t.Fatalf("retry after a canceled trajectory patch swept %d rows and revalidated %d times, want one patch sweeping none", swept, st.Revalidated-before.Revalidated)
	}
	want, _, err = idx.RepCoverCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	sameCoverBits(t, "trajectory patch after a canceled one", got, want)
}
