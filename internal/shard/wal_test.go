package shard

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// cloneInstance deep-copies the mutable parts of a problem instance so two
// engines can diverge-proof each other.
func cloneInstance(inst *tops.Instance) *tops.Instance {
	return &tops.Instance{
		G:     inst.G,
		Trajs: inst.Trajs.Clone(),
		Sites: append([]roadnet.NodeID(nil), inst.Sites...),
	}
}

// TestEngineOwnsAddedTrajectories: an engine stores what the mutation value
// carries, never the caller's objects, so a library caller that reuses its
// slices after AddTrajectory / AddTrajectories cannot make live state differ
// from what the log recovers (at the parent commit the live path kept the
// caller's pointer while the log kept a copy; the single engine's live and
// recovered checkpoints are byte-equal).
func TestEngineOwnsAddedTrajectories(t *testing.T) {
	inst, city := buildFixture(t, 769)
	live := singleEngine(t, cloneInstance(inst))
	twin := singleEngine(t, cloneInstance(inst))
	log, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := live.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	mine := extraTrajectories(t, city, 3, 9127)
	if _, err := live.AddTrajectory(mine[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddTrajectories(mine[1:]); err != nil {
		t.Fatal(err)
	}
	// The caller reuses its buffers.
	for _, tr := range mine {
		for i := range tr.Nodes {
			tr.Nodes[i] = tr.Nodes[0]
			tr.CumDist[i] *= 3
		}
	}
	if n, err := wal.Replay(log, twin); err != nil || n != 2 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	var a, b bytes.Buffer
	if _, err := live.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("live checkpoint differs from the one recovered from its own log")
	}
	rng := rand.New(rand.NewSource(53))
	for d := 0; d < 6; d++ {
		opts := core.QueryOptions{K: 1 + rng.Intn(8), Pref: drawPref(rng)}
		got, err := live.Query(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Query(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "engine", got, want)
	}
}
