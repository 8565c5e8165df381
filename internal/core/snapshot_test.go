package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

func TestIndexSerializationRoundTrip(t *testing.T) {
	idx, inst := buildTestIndex(t, 301, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Instances) != len(idx.Instances) {
		t.Fatalf("instances: %d vs %d", len(loaded.Instances), len(idx.Instances))
	}
	if loaded.Gamma() != idx.Gamma() {
		t.Error("gamma mismatch")
	}
	lm, lM := loaded.TauRange()
	om, oM := idx.TauRange()
	if lm != om || lM != oM {
		t.Error("tau range mismatch")
	}
	// Queries must answer identically.
	for _, tau := range []float64{0.4, 0.8, 1.6} {
		pref := tops.Binary(tau)
		a, err := idx.Query(QueryOptions{K: 5, Pref: pref})
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(QueryOptions{K: 5, Pref: pref})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.EstimatedUtility-b.EstimatedUtility) > 1e-12 {
			t.Fatalf("τ=%v: utilities differ: %v vs %v", tau, a.EstimatedUtility, b.EstimatedUtility)
		}
		if a.InstanceUsed != b.InstanceUsed || a.NumRepresentatives != b.NumRepresentatives {
			t.Fatalf("τ=%v: structure differs", tau)
		}
		for i := range a.Sites {
			if a.Sites[i] != b.Sites[i] {
				t.Fatalf("τ=%v: site %d differs", tau, i)
			}
		}
	}
}

func TestIndexSerializationPreservesUpdates(t *testing.T) {
	idx, inst := buildTestIndex(t, 303, false)
	// Delete some trajectories and a site; the round trip must keep the
	// mutated state.
	if err := idx.DeleteTrajectory(0); err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteTrajectory(5); err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteSite(inst.Sites[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumAlive() != idx.NumAlive() {
		t.Fatalf("alive count: %d vs %d", loaded.NumAlive(), idx.NumAlive())
	}
	a, _ := idx.Query(QueryOptions{K: 5, Pref: tops.Binary(0.8)})
	b, _ := loaded.Query(QueryOptions{K: 5, Pref: tops.Binary(0.8)})
	if math.Abs(a.EstimatedUtility-b.EstimatedUtility) > 1e-12 {
		t.Fatalf("post-update utilities differ: %v vs %v", a.EstimatedUtility, b.EstimatedUtility)
	}
}

func TestReadIndexRejectsMismatchedDataset(t *testing.T) {
	idx, _ := buildTestIndex(t, 307, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// A different seed produces a different dataset; even when the shape
	// (node and trajectory counts) happens to coincide, the fingerprint
	// must reject it.
	_, other := buildTestIndex(t, 311, false)
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("mismatched dataset accepted")
	}
}

func TestReadIndexRejectsSiteReordering(t *testing.T) {
	// Dense site ids follow the instance's site order, so a snapshot
	// attached to the same dataset with reordered sites would silently
	// mislabel every answer. The fingerprint covers site order.
	idx, inst := buildTestIndex(t, 331, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sites := append([]roadnet.NodeID(nil), inst.Sites...)
	sites[0], sites[1] = sites[1], sites[0]
	other, err := tops.NewInstance(inst.G, inst.Trajs, sites)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("site-reordered dataset accepted")
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	_, inst := buildTestIndex(t, 313, false)
	for name, data := range map[string][]byte{
		"empty":        {},
		"bad magic":    {1, 2, 3, 4},
		"old v1 magic": {0x31, 0x49, 0x43, 0x4e, 0, 0, 0, 0},
		"truncated":    {0x4e, 0x43, 0x53, 0x53, 2, 0, 0, 0},
	} {
		if _, err := ReadIndex(bytes.NewReader(data), inst); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadIndexRejectsShortenedLadder(t *testing.T) {
	// A corrupt instance-count field that decodes fewer rungs than the
	// header's (γ, τmin, τmax) imply must not "load cleanly" and then
	// silently serve high-τ queries from the wrong rung.
	idx, inst := buildTestIndex(t, 351, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// nInst sits right after the fixed header (56 bytes since the v3 WAL
	// LSN field) and the two byte-per-entry masks.
	off := 56 + inst.G.NumNodes() + inst.Trajs.Len()
	nInst := binary.LittleEndian.Uint32(data[off:])
	if int(nInst) != len(idx.Instances) {
		t.Fatalf("instance count field not at expected offset: %d", nInst)
	}
	binary.LittleEndian.PutUint32(data[off:], nInst-1)
	if _, err := ReadIndex(bytes.NewReader(data), inst); err == nil {
		t.Error("shortened ladder accepted")
	}
}

func TestReadIndexRejectsUnbuildableHeader(t *testing.T) {
	// A header whose (γ, τ range) implies a ladder Build could never
	// produce must be rejected before any instance decodes — even when
	// the CRC is made consistent (crafted file, not random corruption).
	// Otherwise a 0-instance index could load and panic on first Query.
	idx, inst := buildTestIndex(t, 357, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// γ sits at bytes 24..32 (after magic, version, fingerprint, WAL LSN).
	binary.LittleEndian.PutUint64(data[24:], math.Float64bits(1e-9))
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	_, err := ReadIndex(bytes.NewReader(data), inst)
	if err == nil || !strings.Contains(err.Error(), "ladder") {
		t.Errorf("unbuildable header accepted or misreported: %v", err)
	}
}

func TestReadIndexRejectsBitFlips(t *testing.T) {
	// In-range payload corruption passes every structural check; the CRC32
	// trailer is what turns it into a load error instead of silently wrong
	// query answers.
	idx, inst := buildTestIndex(t, 353, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, off := range []int{60, len(valid) / 2, len(valid) - 10} {
		data := append([]byte(nil), valid...)
		data[off] ^= 0x01
		if _, err := ReadIndex(bytes.NewReader(data), inst); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
}

func TestReadIndexRejectsTrailingData(t *testing.T) {
	idx, inst := buildTestIndex(t, 359, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0xde, 0xad)
	_, err := ReadIndex(bytes.NewReader(data), inst)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing data accepted or misreported: %v", err)
	}
}

func TestReadIndexRejectsFutureVersion(t *testing.T) {
	idx, inst := buildTestIndex(t, 329, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[4:8], snapshotVersion+1)
	_, err := ReadIndex(bytes.NewReader(data), inst)
	// The message must name both sides of the mismatch — the snapshot's
	// version and the newest one this reader supports — so an operator can
	// tell a stale binary from a stale snapshot.
	wantFrag := fmt.Sprintf("snapshot format v%d, this reader supports <=v%d", snapshotVersion+1, snapshotVersion)
	if err == nil || !strings.Contains(err.Error(), wantFrag) {
		t.Errorf("future version accepted or misreported: %v (want %q)", err, wantFrag)
	}
}

func TestSnapshotCarriesWalLSN(t *testing.T) {
	idx, inst := buildTestIndex(t, 331, false)
	var buf bytes.Buffer
	if _, err := idx.WriteSnapshot(&buf, 41); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(bytes.NewReader(buf.Bytes()), inst)
	if err != nil {
		t.Fatal(err)
	}
	if got.WalLSN() != 41 {
		t.Errorf("loaded WAL LSN %d, want 41", got.WalLSN())
	}
}

func TestSnapshotRoundTripsLongLadder(t *testing.T) {
	// A small γ legitimately produces a ladder far beyond the old fixed
	// 64-instance load cap; the cap is now derived from the header, so
	// every index Build can produce must also load.
	_, inst := buildTestIndex(t, 349, false)
	idx, err := Build(inst, Options{Gamma: 0.04, TauMin: 0.4, TauMax: 6.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Instances) <= 64 {
		t.Fatalf("ladder only %d rungs; test needs > 64 to be meaningful", len(idx.Instances))
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()), inst)
	if err != nil {
		t.Fatalf("long-ladder snapshot rejected: %v", err)
	}
	if len(loaded.Instances) != len(idx.Instances) {
		t.Fatalf("instances: %d vs %d", len(loaded.Instances), len(idx.Instances))
	}
}

func TestSnapshotByteIdenticalAcrossWorkers(t *testing.T) {
	// Two builds of the same dataset must produce byte-identical snapshots
	// regardless of build parallelism — the property that makes snapshots
	// shippable artifacts and doubles as a build-determinism checksum.
	for _, useFM := range []bool{false, true} {
		_, inst := buildTestIndex(t, 337, useFM)
		var bufs [3]bytes.Buffer
		for i, workers := range []int{1, 4, 4} {
			idx, err := Build(inst, Options{
				Gamma: 0.75, TauMin: 0.4, TauMax: 6.4, Workers: workers,
				GDSP: GDSPOptions{UseFM: useFM, F: 16, Seed: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := idx.WriteTo(&bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
			t.Errorf("useFM=%v: workers=1 and workers=4 snapshots differ", useFM)
		}
		if !bytes.Equal(bufs[1].Bytes(), bufs[2].Bytes()) {
			t.Errorf("useFM=%v: two workers=4 snapshots differ", useFM)
		}
	}
}

func TestLoadedIndexInvalidatesCoverCacheOnUpdate(t *testing.T) {
	// A warm-started index must keep the §6 cover contract: a trajectory
	// add after load keeps the memoized cover, and the next lookup patches
	// it (no row swept) into exactly what a fresh fill produces, so no stale
	// covering structure can serve a post-update query.
	idx, inst := buildTestIndex(t, 341, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()), inst)
	if err != nil {
		t.Fatal(err)
	}
	pref := tops.Binary(0.8)
	p := loaded.InstanceFor(pref.Tau)
	if _, _, hit := loaded.CoverFor(p, pref); hit {
		t.Fatal("first cover on loaded index served from cache")
	}
	if _, _, hit := loaded.CoverFor(p, pref); !hit {
		t.Fatal("second cover not served from cache")
	}
	if st := loaded.CoverCacheStats(); st.Entries == 0 {
		t.Fatal("no cover memoized on loaded index")
	}
	tr, err := trajectory.New(inst.G, inst.Trajs.Get(0).Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.AddTrajectory(tr); err != nil {
		t.Fatal(err)
	}
	before := loaded.CoverCacheStats()
	if before.Entries != 1 {
		t.Fatalf("update left %d cover entries, want the memoized one", before.Entries)
	}
	got, _, swept, err := loaded.CoverForCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	if after := loaded.CoverCacheStats(); swept != 0 || after.Revalidated != before.Revalidated+1 {
		t.Fatalf("post-update lookup swept %d rows and revalidated %d times, want one patch sweeping none", swept, after.Revalidated-before.Revalidated)
	}
	if got.M != inst.M() {
		t.Fatalf("post-update cover spans %d trajectories, the store %d", got.M, inst.M())
	}
	want, _, err := loaded.RepCoverCtx(context.Background(), p, pref)
	if err != nil {
		t.Fatal(err)
	}
	sameCoverBits(t, "post-update cover", got, want)
}

func FuzzLoadSnapshot(f *testing.F) {
	idx, inst := buildTestIndex(f, 347, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte{})
	for _, off := range []int{0, 4, 8, 16, 40, len(valid) / 3, 2 * len(valid) / 3} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadIndex(bytes.NewReader(data), inst); err != nil {
			return // rejected: the only acceptable failure mode
		}
		// Accepted input must yield a fully serviceable index: queries and
		// updates must not panic. Updates mutate the attached instance, so
		// re-attach to a private copy to keep the corpus instance pristine
		// for later iterations.
		priv := trajectory.NewStore(inst.Trajs.Len())
		inst.Trajs.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) { priv.Add(tr) })
		privInst, err := tops.NewInstance(inst.G, priv, append([]roadnet.NodeID(nil), inst.Sites...))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(bytes.NewReader(data), privInst)
		if err != nil {
			t.Fatalf("accepted input rejected on an identical instance: %v", err)
		}
		if _, err := loaded.Query(QueryOptions{K: 3, Pref: tops.Binary(0.8)}); err != nil {
			t.Fatalf("accepted snapshot cannot serve queries: %v", err)
		}
		tr, err := trajectory.New(inst.G, inst.Trajs.Get(0).Nodes)
		if err != nil {
			t.Fatal(err)
		}
		tid, err := loaded.AddTrajectory(tr)
		if err != nil {
			t.Fatalf("accepted snapshot cannot absorb updates: %v", err)
		}
		if err := loaded.DeleteTrajectory(tid); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLoadedIndexSupportsUpdates(t *testing.T) {
	idx, inst := buildTestIndex(t, 317, false)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trajectory.New(inst.G, inst.Trajs.Get(1).Nodes)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := loaded.AddTrajectory(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.DeleteTrajectory(tid); err != nil {
		t.Fatal(err)
	}
	for p := range loaded.Instances {
		if err := loaded.validateInstance(p); err != nil {
			t.Fatalf("instance %d after updates on loaded index: %v", p, err)
		}
	}
}
