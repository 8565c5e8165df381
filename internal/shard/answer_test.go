package shard

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// prefetched is a 4-shard core with one query's ownership and owning
// covers fetched ahead, so a test can drive Answer on its own.
func prefetched(t *testing.T) (*Sharded, int, *Ownership, []Cover, core.QueryOptions) {
	t.Helper()
	inst, _ := buildFixture(t, 421)
	s := shardedEngine(t, inst, 4, HashPartitioner)
	ctx := context.Background()
	q := core.QueryOptions{K: 5, Pref: tops.Binary(0.9)}
	p := core.InstanceForTau(s.ladder.TauMin, s.ladder.Gamma, s.ladder.Rungs, q.Pref.Tau)
	own, err := s.ownership(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	covers, err := memberCovers(ctx, s, p, q.Pref, own)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) < 2 {
		t.Fatalf("only %d owning shards: the answer would run over one part", len(covers))
	}
	return s, p, own, covers, q
}

// TestAnswerCanceled: Answer checks its context once, before the greedy.
func TestAnswerCanceled(t *testing.T) {
	s, p, own, covers, q := prefetched(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Answer(ctx, p, own, covers, s.sites, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Answer returned %v", err)
	}
}

// TestAnswerZeroAllocs pins the routing core's answer phase at zero
// allocations once warm: over prefetched 4-shard covers, Answer runs the
// greedy in pooled scratch and returns a pooled result.
func TestAnswerZeroAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector's instrumentation allocates on its own (shadow
		// state for sync.Pool traffic), so an exact-zero gate can't hold
		// under -race. The non-race lanes enforce it.
		t.Skip("allocation counts are not exact under -race")
	}
	s, p, own, covers, q := prefetched(t)
	ctx := context.Background()
	want, err := s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools, and check the prefetched path answers as Query does.
	for i := 0; i < 3; i++ {
		res, err := Answer(ctx, p, own, covers, s.sites, q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "prefetched answer", res, want)
		res.Release()
	}
	// Flush sync.Pool victim caches so the measured runs start from steady
	// state, as TestCachedQueryZeroAllocs does.
	runtime.GC()
	runtime.GC()
	res, err := Answer(ctx, p, own, covers, s.sites, q)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	avg := testing.AllocsPerRun(100, func() {
		r, err := Answer(ctx, p, own, covers, s.sites, q)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	})
	if avg != 0 {
		t.Fatalf("warm Answer allocates %.2f objects per call, want 0", avg)
	}
}
