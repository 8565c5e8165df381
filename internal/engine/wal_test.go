package engine

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"netclus/internal/core"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// This file is the durability differential: a WAL-served engine is crashed
// (abandoned), recovered from its checkpoint plus log-tail replay, and the
// recovered engine must answer every query bit-identically to a twin that
// applied the same mutations live and was never interrupted. It extends
// the oracle_test style from "is the answer right" to "does the answer
// survive a crash".

// walMutator is the common mutation surface the lockstep driver feeds.
type walMutator interface {
	AddSite(v roadnet.NodeID) error
	DeleteSite(v roadnet.NodeID) error
	AddSites(nodes []roadnet.NodeID) error
	AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error)
	DeleteTrajectory(tid trajectory.ID) error
	AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error)
	DeleteTrajectories(ids []trajectory.ID) error
}

// mutationScript precomputes a random but valid §6 mutation sequence over
// the fixture, including batch frames, so the same script can drive any
// number of engines into identical states. Validity is tracked against a
// simulated site set / liveness mask, not against any engine.
func mutationScript(t testing.TB, inst *tops.Instance, city *gen.City, rng *rand.Rand, n int) []func(m walMutator) error {
	t.Helper()
	extras := extraTrajectories(t, city, n, 7117)
	sites := make(map[roadnet.NodeID]bool, len(inst.Sites))
	for _, s := range inst.Sites {
		sites[s] = true
	}
	alive := make([]bool, inst.Trajs.Len())
	for i := range alive {
		alive[i] = true
	}
	nextTID := trajectory.ID(inst.Trajs.Len())
	liveCount := len(alive)

	freeNodes := func(k int) []roadnet.NodeID {
		var out []roadnet.NodeID
		start := rng.Intn(city.Graph.NumNodes())
		for d := 0; d < city.Graph.NumNodes() && len(out) < k; d++ {
			v := roadnet.NodeID((start + d) % city.Graph.NumNodes())
			if !sites[v] {
				out = append(out, v)
				sites[v] = true // reserve
			}
		}
		return out
	}
	randSite := func() (roadnet.NodeID, bool) {
		if len(sites) <= 60 {
			return 0, false
		}
		i := rng.Intn(len(sites))
		for v := range sites {
			if i == 0 {
				return v, true
			}
			i--
		}
		return 0, false
	}
	randLive := func(k int) []trajectory.ID {
		if liveCount <= 20+k {
			return nil
		}
		var out []trajectory.ID
		for len(out) < k {
			tid := trajectory.ID(rng.Intn(int(nextTID)))
			ok := alive[tid]
			for _, seen := range out {
				if seen == tid {
					ok = false
				}
			}
			if ok {
				out = append(out, tid)
			}
		}
		return out
	}

	var script []func(m walMutator) error
	for len(script) < n {
		switch rng.Intn(7) {
		case 0:
			vs := freeNodes(1)
			if len(vs) == 1 {
				v := vs[0]
				script = append(script, func(m walMutator) error { return m.AddSite(v) })
			}
		case 1:
			if v, ok := randSite(); ok {
				delete(sites, v)
				script = append(script, func(m walMutator) error { return m.DeleteSite(v) })
			}
		case 2:
			vs := freeNodes(2 + rng.Intn(3))
			if len(vs) > 0 {
				script = append(script, func(m walMutator) error { return m.AddSites(vs) })
			}
		case 3:
			if len(extras) > 0 {
				tr := extras[0]
				extras = extras[1:]
				alive = append(alive, true)
				nextTID++
				liveCount++
				script = append(script, func(m walMutator) error {
					_, err := m.AddTrajectory(tr)
					return err
				})
			}
		case 4:
			if ids := randLive(1); len(ids) == 1 {
				tid := ids[0]
				alive[tid] = false
				liveCount--
				script = append(script, func(m walMutator) error { return m.DeleteTrajectory(tid) })
			}
		case 5:
			if len(extras) >= 2 {
				trs := []*trajectory.Trajectory{extras[0], extras[1]}
				extras = extras[2:]
				alive = append(alive, true, true)
				nextTID += 2
				liveCount += 2
				script = append(script, func(m walMutator) error {
					_, err := m.AddTrajectories(trs)
					return err
				})
			}
		default:
			if ids := randLive(2); len(ids) == 2 {
				for _, tid := range ids {
					alive[tid] = false
					liveCount--
				}
				script = append(script, func(m walMutator) error { return m.DeleteTrajectories(ids) })
			}
		}
	}
	return script
}

// sameAnswers asserts bit-exact query equality across random draws.
func sameAnswers(t *testing.T, label string, got, want *Engine, rng *rand.Rand, draws int) {
	t.Helper()
	ctx := context.Background()
	for d := 0; d < draws; d++ {
		k := 1 + rng.Intn(10)
		pref := drawPref(rng)
		opts := core.QueryOptions{K: k, Pref: pref}
		rg, err := got.Query(ctx, opts)
		if err != nil {
			t.Fatalf("%s: recovered query: %v", label, err)
		}
		rw, err := want.Query(ctx, opts)
		if err != nil {
			t.Fatalf("%s: twin query: %v", label, err)
		}
		if rg.EstimatedUtility != rw.EstimatedUtility || rg.EstimatedCovered != rw.EstimatedCovered ||
			rg.NumRepresentatives != rw.NumRepresentatives || rg.InstanceUsed != rw.InstanceUsed {
			t.Fatalf("%s: draw %d (k=%d ψ=%s τ=%.3f): got {u=%v c=%d reps=%d} want {u=%v c=%d reps=%d}",
				label, d, k, pref.Name, pref.Tau,
				rg.EstimatedUtility, rg.EstimatedCovered, rg.NumRepresentatives,
				rw.EstimatedUtility, rw.EstimatedCovered, rw.NumRepresentatives)
		}
		if len(rg.Sites) != len(rw.Sites) {
			t.Fatalf("%s: draw %d selects %d sites, twin %d", label, d, len(rg.Sites), len(rw.Sites))
		}
		for i := range rg.Sites {
			if rg.Sites[i] != rw.Sites[i] || rg.SiteIDs[i] != rw.SiteIDs[i] {
				t.Fatalf("%s: draw %d site %d: (%d,%d) vs twin (%d,%d)",
					label, d, i, rg.Sites[i], rg.SiteIDs[i], rw.Sites[i], rw.SiteIDs[i])
			}
		}
	}
}

func TestWALRecoveryDifferential(t *testing.T) {
	const seed = 611
	idxA, instA, city := buildFixture(t, seed)
	engA, err := New(idxA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.AttachWAL(log); err != nil {
		t.Fatal(err)
	}

	idxT, _, _ := buildFixture(t, seed)
	twin, err := New(idxT, Options{})
	if err != nil {
		t.Fatal(err)
	}

	script := mutationScript(t, instA, city, rand.New(rand.NewSource(41)), 40)
	ckptPath := filepath.Join(walDir, "checkpoint.ncck")
	var ckptLSN uint64
	for i, op := range script {
		if err := op(engA); err != nil {
			t.Fatalf("primary op %d: %v", i, err)
		}
		if err := op(twin); err != nil {
			t.Fatalf("twin op %d: %v", i, err)
		}
		if i == len(script)/3 {
			// Mid-stream checkpoint, exactly what -checkpoint-every does.
			if err := wal.AtomicWriteFile(ckptPath, func(w io.Writer) error {
				_, err := engA.Checkpoint(w)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			ckptLSN = engA.LSN()
		}
	}
	if engA.LSN() != uint64(len(script)) {
		t.Fatalf("primary LSN %d after %d mutations", engA.LSN(), len(script))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// "Crash": engA is abandoned; everything below uses only disk state.

	recover := func(label string, compactFirst bool) *Engine {
		t.Helper()
		log2, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log2.Close() })
		if compactFirst {
			if _, err := log2.Compact(ckptLSN); err != nil {
				t.Fatal(err)
			}
		}
		f, err := os.Open(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// The checkpoint reconstructs the mutated dataset over the preset's
		// immutable graph — no preset site/trajectory state is consulted.
		inst, _, br, err := wal.ReadCheckpoint(f, city.Graph)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		idx, err := core.ReadIndex(br, inst)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if idx.WalLSN() != ckptLSN {
			t.Fatalf("%s: checkpoint stamped LSN %d, want %d", label, idx.WalLSN(), ckptLSN)
		}
		eng, err := New(idx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := wal.Replay(log2, eng)
		if err != nil {
			t.Fatalf("%s: replay: %v", label, err)
		}
		if want := len(script) - int(ckptLSN); n != want {
			t.Fatalf("%s: replayed %d records, want %d", label, n, want)
		}
		if eng.LSN() != uint64(len(script)) {
			t.Fatalf("%s: recovered LSN %d, want %d", label, eng.LSN(), len(script))
		}
		return eng
	}

	rng := rand.New(rand.NewSource(97))
	sameAnswers(t, "checkpoint+tail", recover("checkpoint+tail", false), twin, rng, 8)
	// Compaction up to the checkpoint watermark must not change recovery.
	sameAnswers(t, "compacted", recover("compacted", true), twin, rng, 8)

	// Full-log replay over a freshly built engine (no checkpoint at all)
	// reaches the same state — the follower's from-scratch bootstrap.
	idxF, _, _ := buildFixture(t, seed)
	engF, err := New(idxF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	logFull, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer logFull.Close()
	if n, err := wal.Replay(logFull, engF); err != nil || n != len(script) {
		t.Fatalf("full replay = %d, %v", n, err)
	}
	sameAnswers(t, "full-replay", engF, twin, rng, 8)
}

// TestCheckpointRejectsCorruption holds the checkpoint reader to the same
// reject-never-panic bar as the snapshot codec.
func TestCheckpointRejectsCorruption(t *testing.T) {
	idx, _, city := buildFixture(t, 613)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddSite(findNonSite(t, idx)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	load := func(data []byte) error {
		inst, _, br, err := wal.ReadCheckpoint(bytes.NewReader(data), city.Graph)
		if err != nil {
			return err
		}
		_, err = core.ReadIndex(br, inst)
		return err
	}
	if err := load(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	for _, off := range []int{4, 10, 30, len(valid) / 2, len(valid) - 8} {
		data := append([]byte(nil), valid...)
		data[off] ^= 0x10
		if err := load(data); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 5} {
		if err := load(valid[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func findNonSite(t testing.TB, idx *core.Index) roadnet.NodeID {
	t.Helper()
	inst := idx.TopsInstance()
	for v := 0; v < inst.G.NumNodes(); v++ {
		if _, ok := inst.SiteIDOf(roadnet.NodeID(v)); !ok {
			return roadnet.NodeID(v)
		}
	}
	t.Fatal("every node is a site")
	return 0
}

// TestApplyRecordGuards pins the replay-surface contracts: LSN ordering,
// and the refusal to replay into a WAL-attached engine.
func TestApplyRecordGuards(t *testing.T) {
	idx, _, _ := buildFixture(t, 617)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := findNonSite(t, idx)
	rec := wal.Record{LSN: 2, Kind: wal.KindAddSite, Body: wal.NodeBody(int64(v))}
	if err := eng.ApplyRecord(rec); err == nil {
		t.Fatal("gap LSN accepted")
	}
	rec.LSN = 1
	if err := eng.ApplyRecord(rec); err != nil {
		t.Fatal(err)
	}
	if eng.LSN() != 1 {
		t.Fatalf("LSN %d after one replay", eng.LSN())
	}
	st := eng.Stats()
	if st.SiteAdds != 1 || st.Updates != 1 || st.LSN != 1 {
		t.Fatalf("stats after replay: %+v", st)
	}
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	rec2 := wal.Record{LSN: 2, Kind: wal.KindDeleteSite, Body: wal.NodeBody(int64(v))}
	if err := eng.ApplyRecord(rec2); err == nil {
		t.Fatal("ApplyRecord accepted on a WAL-attached engine")
	}
}

// TestPerKindCounters pins the /statsz contract: update counts split by
// mutation kind, batch entries counting items — and, because both paths
// count in applyMutation, replaying a log leaves exactly the counters that
// applying the same history live did (internal/shard's test of the same
// name holds the sharded engine to it too).
func TestPerKindCounters(t *testing.T) {
	idx, inst, city := buildFixture(t, 619)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := findNonSite(t, idx)
	if err := eng.AddSite(v1); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeleteSite(inst.Sites[0]); err != nil {
		t.Fatal(err)
	}
	extras := extraTrajectories(t, city, 3, 5503)
	if _, err := eng.AddTrajectory(extras[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddTrajectories(extras[1:]); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeleteTrajectory(0); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SiteAdds != 1 || st.SiteDeletes != 1 || st.TrajAdds != 3 || st.TrajDeletes != 1 {
		t.Fatalf("per-kind counters: %+v", st)
	}
	if st.Updates != 5 {
		t.Fatalf("updates %d, want 5 calls", st.Updates)
	}

	// All seven kinds applied live, then the same history replayed.
	var pair [2]*Engine
	for i := range pair {
		idx, _, _ := buildFixture(t, 619)
		if pair[i], err = New(idx, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	log, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := pair[0].AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	for i, op := range mutationScript(t, pair[0].Index().TopsInstance(), city, rand.New(rand.NewSource(47)), 30) {
		if err := op(pair[0]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := wal.Replay(log, pair[1]); err != nil {
		t.Fatal(err)
	}
	if live, got := pair[0].Stats(), pair[1].Stats(); got != live {
		t.Fatalf("replayed stats %+v\nlive stats     %+v", got, live)
	} else if live.SiteAdds < 3 || live.SiteDeletes < 2 || live.TrajAdds < 5 || live.TrajDeletes < 3 {
		t.Fatalf("script did not exercise every kind: %+v", live)
	}
}

// TestCheckpointCarriesEpoch: the fencing token survives the checkpoint
// container (v2) and the epoch record survives log replay, so a recovered
// node knows which primary term it last observed.
func TestCheckpointCarriesEpoch(t *testing.T) {
	idx, _, city := buildFixture(t, 811)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	if err := eng.BeginEpoch(4); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddSite(findNonSite(t, idx)); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 4 {
		t.Fatalf("epoch %d after BeginEpoch(4)", eng.Epoch())
	}
	if eng.Stats().Epoch != 4 {
		t.Fatalf("stats epoch %d", eng.Stats().Epoch)
	}

	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	inst, epoch, br, err := wal.ReadCheckpoint(bytes.NewReader(buf.Bytes()), city.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("checkpoint epoch %d, want 4", epoch)
	}
	idx2, err := core.ReadIndex(br, inst)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := New(idx2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2.RestoreEpoch(epoch)
	if eng2.Epoch() != 4 {
		t.Fatalf("restored epoch %d", eng2.Epoch())
	}

	// Replaying the full log into a fresh engine observes the epoch record.
	idx3, _, _ := buildFixture(t, 811)
	eng3, err := New(idx3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := wal.Replay(log, eng3); err != nil || n != 2 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	if eng3.Epoch() != 4 {
		t.Fatalf("replayed epoch %d, want 4", eng3.Epoch())
	}
	if eng3.LSN() != eng.LSN() {
		t.Fatalf("replayed LSN %d, want %d", eng3.LSN(), eng.LSN())
	}
}
