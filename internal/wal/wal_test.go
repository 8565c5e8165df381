package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// appendN appends n simple records and returns their LSNs.
func appendN(t *testing.T, l *Log, n int) []uint64 {
	t.Helper()
	var lsns []uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append(KindAddSite, NodeBody(int64(i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsns := appendN(t, l, 10)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
	recs, head, err := l.ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if head != 10 || len(recs) != 10 {
		t.Fatalf("read %d records to head %d, want 10/10", len(recs), head)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || rec.Kind != KindAddSite {
			t.Fatalf("record %d = {%d %s}", i, rec.LSN, rec.Kind)
		}
		m, err := rec.Mutation()
		if err != nil {
			t.Fatal(err)
		}
		if m.Node != roadnet.NodeID(i) {
			t.Fatalf("record %d node %d, want %d", i, m.Node, i)
		}
	}
	// Mid-log start and the empty head+1 probe.
	recs, _, err = l.ReadFrom(7, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("ReadFrom(7) = %d records, %v", len(recs), err)
	}
	recs, _, err = l.ReadFrom(11, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(head+1) = %d records, %v", len(recs), err)
	}
	if _, _, err := l.ReadFrom(12, 0); err == nil {
		t.Fatal("ReadFrom beyond head+1 accepted")
	}
	if _, _, err := l.ReadFrom(0, 0); err == nil {
		t.Fatal("ReadFrom(0) accepted")
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.HeadLSN() != 5 {
		t.Fatalf("reopened head %d, want 5", l2.HeadLSN())
	}
	lsn, err := l2.Append(KindDeleteSite, NodeBody(99))
	if err != nil || lsn != 6 {
		t.Fatalf("append after reopen = %d, %v", lsn, err)
	}
	recs, _, err := l2.ReadFrom(1, 0)
	if err != nil || len(recs) != 6 {
		t.Fatalf("full read after reopen = %d records, %v", len(recs), err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l, err := Open(dir, Options{Policy: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 20)
	st := l.Stats()
	if st.Segments < 5 {
		t.Fatalf("expected many small segments, got %d", st.Segments)
	}
	recs, _, err := l.ReadFrom(1, 0)
	if err != nil || len(recs) != 20 {
		t.Fatalf("cross-segment read = %d records, %v", len(recs), err)
	}
	// Compact half; early reads must now fail with ErrCompacted.
	removed, err := l.Compact(10)
	if err != nil || removed == 0 {
		t.Fatalf("Compact: removed %d, %v", removed, err)
	}
	first := l.FirstLSN()
	if first <= 1 || first > 11 {
		t.Fatalf("first LSN after compaction = %d", first)
	}
	if _, _, err := l.ReadFrom(1, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted read error = %v, want ErrCompacted", err)
	}
	recs, _, err = l.ReadFrom(first, 0)
	if err != nil || len(recs) != int(20-first+1) {
		t.Fatalf("post-compaction read from %d = %d records, %v", first, len(recs), err)
	}
	// The active segment survives any watermark.
	if _, err := l.Compact(1 << 30); err != nil {
		t.Fatal(err)
	}
	if l.HeadLSN() != 20 {
		t.Fatalf("head after over-compaction = %d", l.HeadLSN())
	}
	if _, err := l.Append(KindAddSite, NodeBody(1)); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 11} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 8)
		l.Close()
		names, err := segmentNames(dir)
		if err != nil || len(names) != 1 {
			t.Fatalf("segments: %v %v", names, err)
		}
		path := filepath.Join(dir, names[0])
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{Policy: SyncAlways})
		if err != nil {
			t.Fatalf("reopen after %d-byte cut: %v", cut, err)
		}
		if l2.HeadLSN() != 7 {
			t.Fatalf("cut %d: head %d, want 7 (last whole record)", cut, l2.HeadLSN())
		}
		// The log must accept appends again at the repaired position.
		if lsn, err := l2.Append(KindAddSite, NodeBody(1)); err != nil || lsn != 8 {
			t.Fatalf("cut %d: append after repair = %d, %v", cut, lsn, err)
		}
		l2.Close()
	}
}

func TestSetBaseAndAppendRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetBase(41); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(KindAddSite, NodeBody(1)); err != nil || lsn != 42 {
		t.Fatalf("append after SetBase = %d, %v", lsn, err)
	}
	if err := l.SetBase(7); err == nil {
		t.Fatal("SetBase on a non-empty log accepted")
	}
	// AppendRecord must extend by exactly one.
	if err := l.AppendRecord(Record{LSN: 44, Kind: KindAddSite, Body: NodeBody(2)}); err == nil {
		t.Fatal("gap record accepted")
	}
	if err := l.AppendRecord(Record{LSN: 43, Kind: KindAddSite, Body: NodeBody(2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A fresh unbased log adopts the first record's LSN as its base — the
	// follower persisting a primary's stream after a checkpoint bootstrap.
	l2, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.AppendRecord(Record{LSN: 100, Kind: KindAddSite, Body: NodeBody(3)}); err != nil {
		t.Fatal(err)
	}
	if l2.HeadLSN() != 100 || l2.FirstLSN() != 100 {
		t.Fatalf("adopted base: head %d first %d", l2.HeadLSN(), l2.FirstLSN())
	}
}

func TestResetDiscardsAndRebases(t *testing.T) {
	// The follower flow: a local log based mid-stream no longer lines up
	// with a fresh primary checkpoint; Reset discards it and the next
	// AppendRecord establishes a new base.
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SetBase(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(KindAddSite, NodeBody(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if !l.IsEmpty() || l.HeadLSN() != 0 {
		t.Fatalf("after Reset: empty=%v head=%d", l.IsEmpty(), l.HeadLSN())
	}
	if names, _ := segmentNames(dir); len(names) != 0 {
		t.Fatalf("Reset left segments: %v", names)
	}
	if err := l.AppendRecord(Record{LSN: 50, Kind: KindAddSite, Body: NodeBody(9)}); err != nil {
		t.Fatal(err)
	}
	if l.HeadLSN() != 50 || l.FirstLSN() != 50 {
		t.Fatalf("rebased log: head %d first %d", l.HeadLSN(), l.FirstLSN())
	}
	// And the rebase survives a reopen.
	l.Close()
	l2, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.HeadLSN() != 50 {
		t.Fatalf("reopened rebased head %d", l2.HeadLSN())
	}
}

// le assembles a reference body by hand — u32 counts, u64 ids, f64
// distances, little-endian — independently of the encoder under test.
func le(vals ...any) []byte {
	var b []byte
	for _, v := range vals {
		switch v := v.(type) {
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case int:
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

func TestMutationCodecRoundTrip(t *testing.T) {
	cases := []struct {
		body []byte
		want Mutation
	}{
		{le(17), Mutation{Kind: KindAddSite, Node: 17}},
		{le(3), Mutation{Kind: KindDeleteSite, Node: 3}},
		{le(uint32(3), 1, 2, 3, 0.0, 1.0, 2.5),
			Mutation{Kind: KindAddTrajectory, Traj: TrajData{Nodes: []int64{1, 2, 3}, Cum: []float64{0, 1, 2.5}}}},
		{le(9), Mutation{Kind: KindDeleteTrajectory, ID: 9}},
		{le(uint32(2), 4, 5), Mutation{Kind: KindAddSites, Nodes: []roadnet.NodeID{4, 5}}},
		{le(uint32(2), uint32(2), 1, 2, 0.0, 2.0, uint32(1), 3, 0.0),
			Mutation{Kind: KindAddTrajectories, Trajs: []TrajData{
				{Nodes: []int64{1, 2}, Cum: []float64{0, 2}},
				{Nodes: []int64{3}, Cum: []float64{0}},
			}}},
		{le(uint32(2), 0, 2), Mutation{Kind: KindDeleteTrajectories, IDs: []trajectory.ID{0, 2}}},
		{le(7), Mutation{Kind: KindEpoch, Epoch: 7}},
	}
	for _, tc := range cases {
		kind := tc.want.Kind
		m, err := (Record{LSN: 1, Kind: kind, Body: tc.body}).Mutation()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(m, tc.want) {
			t.Errorf("%s decoded %+v, want %+v", kind, m, tc.want)
		}
		if got := tc.want.Body(); !bytes.Equal(got, tc.body) {
			t.Errorf("%s encoded % x, want % x", kind, got, tc.body)
		}
		if back, ok := KindByName(kind.String()); !ok || back != kind {
			t.Errorf("KindByName(%q) = %v, %v", kind.String(), back, ok)
		}
	}
	if k, ok := KindByName("kind(9)"); ok {
		t.Errorf("KindByName resolved a non-kind to %v", k)
	}
	// Structural garbage must error, never panic.
	bad := []Record{
		{LSN: 1, Kind: KindAddSite, Body: []byte{1, 2}},
		{LSN: 1, Kind: KindAddTrajectory, Body: []byte{255, 255, 255, 255}},
		{LSN: 1, Kind: KindAddTrajectory, Body: IDListBody([]roadnet.NodeID{1, 2})}, // nodes without distances
		{LSN: 1, Kind: Kind(99), Body: nil},
		{LSN: 1, Kind: KindAddSite, Body: append(NodeBody(1), 0xff)},
		{LSN: 1, Kind: KindAddSite, Body: NodeBody(1<<32 + 5)},                 // would wrap to node 5
		{LSN: 1, Kind: KindDeleteTrajectories, Body: le(uint32(2), 0, -1<<40)}, // likewise in a list
		{LSN: 1, Kind: KindAddTrajectories, Body: []byte{2, 0, 0, 0, 1, 0, 0, 0}},
	}
	for _, rec := range bad {
		if _, err := rec.Mutation(); err == nil {
			t.Errorf("kind %s body %v accepted", rec.Kind, rec.Body)
		}
	}
}

func TestStreamFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := []Record{
		{LSN: 1, Kind: KindAddSite, Body: NodeBody(4)},
		{LSN: 2, Kind: KindAddSites, Body: IDListBody([]roadnet.NodeID{5, 6})},
	}
	for _, rec := range recs {
		if err := WriteFrame(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	for i := range recs {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if got.LSN != recs[i].LSN || got.Kind != recs[i].Kind || !bytes.Equal(got.Body, recs[i].Body) {
			t.Fatalf("frame %d round-trip mismatch", i)
		}
	}
	if _, err := ReadFrame(br); err == nil || err.Error() != "EOF" {
		t.Fatalf("clean end = %v, want io.EOF", err)
	}
	// A flipped byte must fail the CRC.
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff
	br = bufio.NewReader(bytes.NewReader(raw))
	if _, err := ReadFrame(br); err != nil {
		t.Fatal(err) // first frame untouched
	}
	if _, err := ReadFrame(br); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

func TestReadFromSeeksThroughSparseIndex(t *testing.T) {
	// Enough records that the sparse offset index has several entries, so
	// tail reads exercise floorOffset seeks instead of front-to-back scans
	// — both on the live log and after a reopen (scan-built index).
	const n = 3*indexStride + 37
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, n)
	check := func(log *Log, from uint64, want int) {
		t.Helper()
		recs, head, err := log.ReadFrom(from, 0)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", from, err)
		}
		if head != n || len(recs) != want {
			t.Fatalf("ReadFrom(%d) = %d records (head %d), want %d", from, len(recs), head, want)
		}
		for i, rec := range recs {
			if rec.LSN != from+uint64(i) {
				t.Fatalf("ReadFrom(%d)[%d] = LSN %d", from, i, rec.LSN)
			}
		}
	}
	probes := []uint64{1, indexStride, indexStride + 1, 2*indexStride - 1, 3*indexStride + 30, n, n + 1}
	for _, from := range probes {
		check(l, from, n-int(from)+1)
	}
	l.Close()
	l2, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, from := range probes {
		check(l2, from, n-int(from)+1)
	}
}

func TestKindNames(t *testing.T) {
	for k := KindAddSite; k <= KindDeleteTrajectories; k++ {
		if name := k.String(); name == "" || name[0] == 'k' {
			t.Errorf("kind %d has no name (%q)", k, name)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind name %q", Kind(99).String())
	}
}

func TestSyncAndAtomicWrite(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.bin")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || string(raw) != "payload" {
		t.Fatalf("atomic write round-trip: %q, %v", raw, err)
	}
	// A failing fill must leave nothing behind.
	failPath := filepath.Join(dir, "fail.bin")
	if err := AtomicWriteFile(failPath, func(w io.Writer) error {
		return errors.New("boom")
	}); err == nil {
		t.Fatal("failing fill succeeded")
	}
	if fileInfo, err := os.Stat(failPath); err == nil {
		t.Fatalf("failed atomic write left %v behind", fileInfo.Name())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && e.Name() != "out.bin" {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncEveryInterval, SyncNever} {
		l, err := Open(t.TempDir(), Options{Policy: pol, Interval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 5)
		if err := l.Close(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy name accepted")
	}
}

func TestReplayDrivesApplier(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 12)
	ap := &countingApplier{}
	n, err := Replay(l, ap)
	if err != nil || n != 12 || ap.lsn != 12 {
		t.Fatalf("Replay = %d, %v (applier at %d)", n, err, ap.lsn)
	}
	// Partial replay: an applier already at LSN 5 gets only the tail.
	ap2 := &countingApplier{lsn: 5}
	if n, err := Replay(l, ap2); err != nil || n != 7 {
		t.Fatalf("tail replay = %d, %v", n, err)
	}
	// An applier ahead of the whole log is a mismatch the caller must see.
	ap3 := &countingApplier{lsn: 20}
	if _, err := Replay(l, ap3); err == nil {
		t.Fatal("applier beyond head accepted")
	}
}

func TestReplayEmptyLogAtAnyLSN(t *testing.T) {
	// A checkpoint restored into a fresh (or fully compacted-away) log
	// directory has nothing to replay, whatever LSN it carries; the
	// follower bootstrap-from-checkpoint flow and the operator
	// backup-restore flow both hit exactly this.
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ap := &countingApplier{lsn: 41}
	if n, err := Replay(l, ap); err != nil || n != 0 {
		t.Fatalf("empty-log replay at LSN 41 = %d, %v", n, err)
	}
	// AttachWAL-equivalent: basing then appending continues from the
	// applier's LSN.
	if err := l.SetBase(41); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(KindAddSite, NodeBody(1)); err != nil || lsn != 42 {
		t.Fatalf("append after base = %d, %v", lsn, err)
	}
}

type countingApplier struct{ lsn uint64 }

func (a *countingApplier) ApplyRecord(rec Record) error {
	if rec.LSN != a.lsn+1 {
		return fmt.Errorf("out of order: %d after %d", rec.LSN, a.lsn)
	}
	a.lsn = rec.LSN
	return nil
}
func (a *countingApplier) LSN() uint64 { return a.lsn }
