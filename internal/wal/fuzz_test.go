package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// FuzzWALReplay holds the log to its recovery contract: for a valid log
// whose (single) segment file is damaged at an arbitrary position — bit
// flips, truncation, garbage overwrites — Open must never panic, must
// recover a strict prefix of the original record sequence, and must leave
// the log appendable. Damage strictly behind a record can cost that record
// and later ones (the scan cannot trust anything past the first invalid
// frame) but never an earlier record, and damage past the end of record i
// never costs records 1..i.
func FuzzWALReplay(f *testing.F) {
	// Build one reference log and remember the byte offset where each
	// record's frame ends.
	refDir := f.TempDir()
	l, err := Open(refDir, Options{Policy: SyncAlways})
	if err != nil {
		f.Fatal(err)
	}
	var want []Record
	for i := 0; i < 6; i++ {
		body := NodeBody(int64(i * 3))
		kind := KindAddSite
		if i%2 == 1 {
			kind = KindAddSites
			body = IDListBody([]roadnet.NodeID{roadnet.NodeID(i), roadnet.NodeID(i + 1)})
		}
		lsn, err := l.Append(kind, body)
		if err != nil {
			f.Fatal(err)
		}
		want = append(want, Record{LSN: lsn, Kind: kind, Body: body})
	}
	l.Close()
	names, err := segmentNames(refDir)
	if err != nil || len(names) != 1 {
		f.Fatalf("reference log segments: %v %v", names, err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, names[0]))
	if err != nil {
		f.Fatal(err)
	}
	// frameEnd[i] = offset just past record i's frame.
	frameEnd := make([]int, len(want))
	off := segHdrSize
	for i := range want {
		_, n := parseFrame(ref[off:])
		if n == 0 {
			f.Fatalf("reference frame %d unparseable", i)
		}
		off += n
		frameEnd[i] = off
	}

	f.Add(10, byte(0xff), 3)  // header damage
	f.Add(40, byte(0x01), -1) // mid-record bit flip
	f.Add(len(ref)-2, byte(0x80), -1)
	f.Add(0, byte(0), 20) // truncation only
	f.Add(len(ref)/2, byte(0x55), len(ref)/3)

	f.Fuzz(func(t *testing.T, pos int, flip byte, truncate int) {
		data := append([]byte(nil), ref...)
		if truncate >= 0 && truncate < len(data) {
			data = data[:len(data)-truncate%len(data)]
		}
		damaged := len(data) // first byte that may differ from ref
		if len(data) < len(ref) {
			damaged = len(data)
		}
		if flip != 0 && len(data) > 0 {
			p := ((pos % len(data)) + len(data)) % len(data)
			data[p] ^= flip
			if p < damaged {
				damaged = p
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, names[0]), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Policy: SyncNever})
		if err != nil {
			// Open may reject only by reporting, never by panicking; a
			// single-segment log is always repaired or dropped, so an
			// error here is a contract violation.
			t.Fatalf("Open on damaged log errored: %v", err)
		}
		defer l.Close()
		recs, head, err := l.ReadFrom(1, 0)
		if err != nil && !bytes.Contains([]byte(err.Error()), []byte("compacted")) {
			// An empty recovered log reports first==0 via ErrCompacted.
			if head != 0 {
				t.Fatalf("ReadFrom after recovery: %v (head %d)", err, head)
			}
			recs = nil
		}
		// Prefix property: recovered records equal the originals.
		if len(recs) > len(want) {
			t.Fatalf("recovered %d records from a %d-record log", len(recs), len(want))
		}
		for i, rec := range recs {
			if rec.LSN != want[i].LSN || rec.Kind != want[i].Kind || !bytes.Equal(rec.Body, want[i].Body) {
				t.Fatalf("recovered record %d differs from original", i)
			}
		}
		// Untouched-prefix property: records fully on disk before the
		// first damaged byte must survive.
		intact := 0
		for i := range want {
			if frameEnd[i] <= damaged {
				intact = i + 1
			}
		}
		if len(recs) < intact {
			t.Fatalf("damage at offset %d lost record %d (frame ends %v)", damaged, len(recs)+1, frameEnd)
		}
		// The repaired log must accept appends at head+1.
		if lsn, err := l.Append(KindDeleteSite, NodeBody(1)); err != nil || lsn != head+1 {
			t.Fatalf("append after recovery = %d, %v (head %d)", lsn, err, head)
		}
	})
}

// FuzzMutationCodec holds Mutation.Body and Record.Mutation to being exact
// inverses: any body the decoder accepts re-encodes to the same bytes (the
// format has one spelling per mutation, so a follower that persists what it
// decoded writes the primary's log), and the re-encoded body decodes to the
// same value (compared through its encoding, which is bit-exact where
// DeepEqual would call two NaN distances different).
func FuzzMutationCodec(f *testing.F) {
	seeds := []Mutation{
		{Kind: KindAddSite, Node: 17},
		{Kind: KindDeleteSite, Node: 1<<31 - 1},
		{Kind: KindAddSites, Nodes: []roadnet.NodeID{4, 5, 6}},
		{Kind: KindAddSites},
		{Kind: KindAddTrajectory, Traj: TrajData{Nodes: []int64{1, 2, 3}, Cum: []float64{0, 1, 2.5}}},
		{Kind: KindDeleteTrajectory, ID: 9},
		{Kind: KindAddTrajectories, Trajs: []TrajData{{Nodes: []int64{1, 2}, Cum: []float64{0, 2}}, {Nodes: []int64{3}, Cum: []float64{0}}}},
		{Kind: KindDeleteTrajectories, IDs: []trajectory.ID{0, 2}},
		{Kind: KindEpoch, Epoch: 1 << 40},
	}
	for _, m := range seeds {
		f.Add(uint8(m.Kind), m.Body())
	}
	f.Add(uint8(KindAddSite), NodeBody(1<<32+5)) // must be rejected, not wrapped to node 5
	f.Add(uint8(99), []byte{1})
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		m, err := Record{Kind: Kind(kind), Body: body}.Mutation()
		if err != nil {
			return
		}
		again := m.Body()
		if !bytes.Equal(again, body) {
			t.Fatalf("%s: accepted body % x re-encodes as % x", m.Kind, body, again)
		}
		m2, err := Record{Kind: m.Kind, Body: again}.Mutation()
		if err != nil {
			t.Fatalf("%s: own encoding rejected: %v", m.Kind, err)
		}
		if !bytes.Equal(m2.Body(), again) || m2.Kind != m.Kind || m2.Node != m.Node || m2.ID != m.ID || m2.Epoch != m.Epoch ||
			len(m2.Nodes) != len(m.Nodes) || len(m2.IDs) != len(m.IDs) || len(m2.Trajs) != len(m.Trajs) {
			t.Fatalf("%s: decode(encode(m)) = %+v, want %+v", m.Kind, m2, m)
		}
	})
}
