package wal

import (
	"fmt"
	"testing"
	"time"

	"netclus/internal/roadnet"
)

// Append throughput per fsync policy — the EXPERIMENTS.md table of what a
// durability guarantee costs per acknowledged update.
func BenchmarkWALAppend(b *testing.B) {
	body := IDListBody([]roadnet.NodeID{1, 2, 3, 4, 5, 6, 7, 8})
	for _, pol := range []SyncPolicy{SyncAlways, SyncEveryInterval, SyncNever} {
		b.Run(string(pol), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Policy: pol, Interval: 10 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(frameHdr + 9 + len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(KindAddSites, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Replay (read + decode) throughput — the recovery-time side of the
// tradeoff: how fast a log tail streams back into an engine.
func BenchmarkWALReplay(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{Policy: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			body := IDListBody([]roadnet.NodeID{1, 2, 3, 4, 5, 6, 7, 8})
			for i := 0; i < n; i++ {
				if _, err := l.Append(KindAddSites, body); err != nil {
					b.Fatal(err)
				}
			}
			l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l2, err := Open(dir, Options{Policy: SyncNever})
				if err != nil {
					b.Fatal(err)
				}
				ap := &benchApplier{}
				if got, err := Replay(l2, ap); err != nil || got != n {
					b.Fatalf("replayed %d, %v", got, err)
				}
				l2.Close()
			}
		})
	}
}

type benchApplier struct{ lsn uint64 }

func (a *benchApplier) ApplyRecord(rec Record) error {
	if _, err := rec.Mutation(); err != nil {
		return err
	}
	a.lsn = rec.LSN
	return nil
}
func (a *benchApplier) LSN() uint64 { return a.lsn }
