package shard

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// Durability differential for the sharded topology: a WAL-served sharded
// engine is crashed, recovered from checkpoint + log-tail replay, and must
// answer bit-identically to (a) an uninterrupted sharded twin and (b) the
// single-shard reference engine driven through the same mutations — so the
// recovery path preserves the scatter-gather bit-exactness the shard
// oracle already proves for the live path.

// walOps is one §6 mutation applied identically to every engine under
// test (Sharded and engine.Engine share the mutation surface).
type walOps interface {
	AddSite(v roadnet.NodeID) error
	DeleteSite(v roadnet.NodeID) error
	AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error)
	DeleteTrajectory(tid trajectory.ID) error
}

func shardedPair(t *testing.T, inst *tops.Instance, shards int) (*Sharded, *Sharded) {
	t.Helper()
	mk := func(in *tops.Instance) *Sharded {
		s, err := Build(in, Options{Shards: shards, Build: fixtureBuild})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	instB := cloneInstance(inst)
	return mk(inst), mk(instB)
}

// cloneInstance deep-copies the mutable parts of a problem instance so two
// engines can diverge-proof each other.
func cloneInstance(inst *tops.Instance) *tops.Instance {
	return &tops.Instance{
		G:     inst.G,
		Trajs: inst.Trajs.Clone(),
		Sites: append([]roadnet.NodeID(nil), inst.Sites...),
	}
}

func sameShardAnswers(t *testing.T, label string, got *Sharded, want interface {
	Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error)
}, rng *rand.Rand, draws int) {
	t.Helper()
	ctx := context.Background()
	for d := 0; d < draws; d++ {
		opts := core.QueryOptions{K: 1 + rng.Intn(10), Pref: drawPref(rng)}
		rg, err := got.Query(ctx, opts)
		if err != nil {
			t.Fatalf("%s: recovered query: %v", label, err)
		}
		rw, err := want.Query(ctx, opts)
		if err != nil {
			t.Fatalf("%s: reference query: %v", label, err)
		}
		if rg.EstimatedUtility != rw.EstimatedUtility || len(rg.Sites) != len(rw.Sites) {
			t.Fatalf("%s: draw %d: utility %v/%d sites vs %v/%d",
				label, d, rg.EstimatedUtility, len(rg.Sites), rw.EstimatedUtility, len(rw.Sites))
		}
		for i := range rg.Sites {
			if rg.Sites[i] != rw.Sites[i] || rg.SiteIDs[i] != rw.SiteIDs[i] {
				t.Fatalf("%s: draw %d site %d: (%d,%d) vs (%d,%d)",
					label, d, i, rg.Sites[i], rg.SiteIDs[i], rw.Sites[i], rw.SiteIDs[i])
			}
		}
	}
}

func TestShardedWALRecoveryDifferential(t *testing.T) {
	inst, city := buildFixture(t, 761)
	single := singleEngine(t, cloneInstance(inst))
	primary, twin := shardedPair(t, inst, 3)

	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.AttachWAL(log); err != nil {
		t.Fatal(err)
	}

	// Scripted mutation stream: site add/delete and trajectory add/delete,
	// applied in lockstep to the sharded primary, the sharded twin, and
	// the single-shard reference. Validity (free nodes, live trajectory
	// ids) is tracked externally so the script never consults engine
	// internals.
	rng := rand.New(rand.NewSource(43))
	extras := extraTrajectories(t, city, 24, 9011)
	siteSet := make(map[roadnet.NodeID]bool, len(inst.Sites))
	siteList := append([]roadnet.NodeID(nil), inst.Sites...)
	for _, s := range siteList {
		siteSet[s] = true
	}
	var liveIDs []trajectory.ID
	for i := 0; i < inst.Trajs.Len(); i++ {
		liveIDs = append(liveIDs, trajectory.ID(i))
	}
	nextTID := trajectory.ID(inst.Trajs.Len())

	targets := []walOps{primary, twin, single}
	apply := func(op func(walOps) error) {
		t.Helper()
		for i, m := range targets {
			if err := op(m); err != nil {
				t.Fatalf("target %d: %v", i, err)
			}
		}
	}
	ckptPath := filepath.Join(walDir, "checkpoint.ncck")
	var ckptLSN uint64
	nOps := 24
	for i := 0; i < nOps; i++ {
		switch rng.Intn(4) {
		case 0:
			var v roadnet.NodeID
			for {
				v = roadnet.NodeID(rng.Intn(inst.G.NumNodes()))
				if !siteSet[v] {
					break
				}
			}
			siteSet[v] = true
			siteList = append(siteList, v)
			apply(func(m walOps) error { return m.AddSite(v) })
		case 1:
			slot := rng.Intn(len(siteList))
			v := siteList[slot]
			siteList[slot] = siteList[len(siteList)-1]
			siteList = siteList[:len(siteList)-1]
			delete(siteSet, v)
			apply(func(m walOps) error { return m.DeleteSite(v) })
		case 2:
			tr := extras[0]
			extras = extras[1:]
			liveIDs = append(liveIDs, nextTID)
			nextTID++
			apply(func(m walOps) error {
				_, err := m.AddTrajectory(tr)
				return err
			})
		default:
			if len(liveIDs) <= 20 {
				i--
				continue
			}
			slot := rng.Intn(len(liveIDs))
			tid := liveIDs[slot]
			liveIDs[slot] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			apply(func(m walOps) error { return m.DeleteTrajectory(tid) })
		}
		if i == nOps/2 {
			if err := wal.AtomicWriteFile(ckptPath, func(w io.Writer) error {
				_, err := primary.Checkpoint(w)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			ckptLSN = primary.LSN()
		}
	}
	if primary.LSN() != uint64(nOps) {
		t.Fatalf("primary LSN %d after %d mutations", primary.LSN(), nOps)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash + recover: checkpoint reconstructs the mutated dataset over
	// the immutable graph, LoadSharded re-attaches the container, the log
	// tail replays through ApplyRecord.
	log2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if _, err := log2.Compact(ckptLSN); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rinst, _, br, err := wal.ReadCheckpoint(f, city.Graph)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := LoadSharded(br, rinst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.LSN() != ckptLSN {
		t.Fatalf("checkpoint stamped LSN %d, want %d", recovered.LSN(), ckptLSN)
	}
	if recovered.Shards() != 3 {
		t.Fatalf("recovered %d shards, want 3", recovered.Shards())
	}
	n, err := wal.Replay(log2, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if n != nOps-int(ckptLSN) {
		t.Fatalf("replayed %d records, want %d", n, nOps-int(ckptLSN))
	}

	qrng := rand.New(rand.NewSource(101))
	sameShardAnswers(t, "vs-sharded-twin", recovered, twin, qrng, 6)
	sameShardAnswers(t, "vs-single-shard", recovered, single, qrng, 6)

	// The manifest LSN also round-trips through the NCSM container.
	var buf bytes.Buffer
	if _, err := recovered.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSharded(&buf, cloneInstance(recovered.fullInstance()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.LSN() != uint64(nOps) {
		t.Fatalf("LoadSharded LSN %d, want %d", back.LSN(), nOps)
	}
}

// fullInstance reassembles the primary's current logical dataset (shared
// graph, extended store, mirror-ordered sites) for snapshot reloads.
func (s *Sharded) fullInstance() *tops.Instance {
	return &tops.Instance{G: s.g, Trajs: s.shards[0].inst.Trajs, Sites: s.sites.Sites()}
}

// TestEngineOwnsAddedTrajectories: an engine stores what the mutation value
// carries, never the caller's objects, so a library caller that reuses its
// slices after AddTrajectory / AddTrajectories cannot make live state differ
// from what the log recovers (at the parent commit the live path kept the
// caller's pointer while the log kept a copy). The in-process shards still
// share one decoded object per trajectory — decoded once at the Sharded
// level, live and on replay.
func TestEngineOwnsAddedTrajectories(t *testing.T) {
	inst, city := buildFixture(t, 769)
	type durable interface {
		walOps
		wal.Applier
		AttachWAL(l *wal.Log) error
		AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error)
		Checkpoint(w io.Writer) (int64, error)
		Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error)
	}
	for name, build := range map[string]func() durable{
		"engine":  func() durable { return singleEngine(t, cloneInstance(inst)) },
		"sharded": func() durable { return shardedEngine(t, cloneInstance(inst), 3, HashPartitioner) },
	} {
		live, twin := build(), build()
		log, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		if err := live.AttachWAL(log); err != nil {
			t.Fatal(err)
		}
		mine := extraTrajectories(t, city, 3, 9127)
		first, err := live.AddTrajectory(mine[0])
		if err != nil {
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
			t.Fatalf("%s: replay = %d, %v", name, n, err)
		}
		var a, b bytes.Buffer
		if _, err := live.Checkpoint(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: live checkpoint differs from the one recovered from its own log", name)
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
			sameAnswer(t, name, got, want)
		}
		for _, eng := range []durable{live, twin} {
			s, ok := eng.(*Sharded)
			if !ok {
				continue
			}
			for id := first; id < first+3; id++ {
				for j, sh := range s.shards {
					if sh.inst.Trajs.Get(id) != s.shards[0].inst.Trajs.Get(id) {
						t.Errorf("shard %d holds its own copy of trajectory %d", j, id)
					}
				}
			}
		}
	}
}
