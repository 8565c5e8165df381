package wal

import (
	"errors"
	"testing"
	"time"
)

// TestCommitSignalWakesOnAppend: a waiter parked on CommitSignal wakes when
// a record commits — the long-poll tailing primitive.
func TestCommitSignalWakesOnAppend(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	sig := l.CommitSignal()
	select {
	case <-sig:
		t.Fatal("commit signal fired before any append")
	default:
	}

	done := make(chan uint64, 1)
	go func() {
		<-sig
		done <- l.HeadLSN()
	}()
	if _, err := l.Append(KindAddSite, NodeBody(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case head := <-done:
		if head != 1 {
			t.Fatalf("woke at head %d, want 1", head)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit signal did not fire on append")
	}

	// Each append broadcasts on a fresh channel: a waiter parked after the
	// first append wakes on the second.
	sig = l.CommitSignal()
	if _, err := l.Append(KindAddSite, NodeBody(2)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	case <-time.After(5 * time.Second):
		t.Fatal("second append did not broadcast")
	}
}

// TestCommitSignalWakesOnClose: Close releases parked waiters so a draining
// server never strands a long-poll goroutine.
func TestCommitSignalWakesOnClose(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	sig := l.CommitSignal()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake commit-signal waiters")
	}
}

// TestEpochRecordRoundTrip: a KindEpoch record carries its fencing token
// through the disk format and the mutation decoder.
func TestEpochRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(KindEpoch, EpochBody(7))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("epoch record at LSN %d, want 1", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs, _, err := l.ReadFrom(1, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ReadFrom = %d records, %v", len(recs), err)
	}
	rec := recs[0]
	if rec.Kind != KindEpoch || rec.Kind.String() != "epoch" {
		t.Fatalf("kind = %v (%s)", rec.Kind, rec.Kind)
	}
	m, err := rec.Mutation()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 7 {
		t.Fatalf("decoded epoch %d, want 7", m.Epoch)
	}
}

// TestSinkEpochFencing: BeginEpoch only moves forward, a replayed epoch
// record never moves backwards, and both report ErrFenced on a stale token.
func TestSinkEpochFencing(t *testing.T) {
	var s Sink
	if s.Epoch() != 0 {
		t.Fatalf("fresh sink epoch %d", s.Epoch())
	}
	// No log attached: BeginEpoch still advances the in-memory token.
	if _, err := s.BeginEpoch(2); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after BeginEpoch(2)", s.Epoch())
	}
	if _, err := s.BeginEpoch(2); !errors.Is(err, ErrFenced) {
		t.Fatalf("BeginEpoch(2) again = %v, want ErrFenced", err)
	}
	if _, err := s.BeginEpoch(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("BeginEpoch(1) = %v, want ErrFenced", err)
	}

	// Replayed epoch records: same epoch is idempotent, lower is fenced,
	// higher advances.
	replay := func(lsn, epoch uint64) error {
		return s.Replay(lsn, Mutation{Kind: KindEpoch, Epoch: epoch}, nil)
	}
	s.SetLSN(4)
	if err := replay(5, 2); err != nil {
		t.Fatalf("replay(same epoch) = %v", err)
	}
	if s.LSN() != 5 {
		t.Fatalf("replayed epoch record did not stamp LSN: %d", s.LSN())
	}
	if err := replay(6, 1); !errors.Is(err, ErrFenced) || s.LSN() != 5 {
		t.Fatalf("replay(stale epoch) = %v at LSN %d, want ErrFenced at 5", err, s.LSN())
	}
	if err := replay(6, 9); err != nil || s.Epoch() != 9 {
		t.Fatalf("replay(newer epoch) = %v, epoch %d", err, s.Epoch())
	}
	if err := replay(8, 9); err == nil {
		t.Fatal("replay accepted an LSN gap")
	}
}

// TestSinkBeginEpochLogsRecord: with a log attached, BeginEpoch writes the
// fencing token into the stream so followers and recovery observe it.
func TestSinkBeginEpochLogsRecord(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var s Sink
	if err := s.Attach(l); err != nil {
		t.Fatal(err)
	}
	lsn, err := s.BeginEpoch(3)
	if err != nil || lsn != 1 {
		t.Fatalf("BeginEpoch = LSN %d, %v", lsn, err)
	}
	recs, _, err := l.ReadFrom(1, 0)
	if err != nil || len(recs) != 1 || recs[0].Kind != KindEpoch {
		t.Fatalf("log after BeginEpoch: %d records, %v", len(recs), err)
	}
	m, err := recs[0].Mutation()
	if err != nil || m.Epoch != 3 {
		t.Fatalf("logged epoch %d, %v", m.Epoch, err)
	}
}
