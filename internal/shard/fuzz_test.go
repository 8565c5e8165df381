package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// fuzzState is one shared sharded engine for the fuzz battery. The engine
// is thread-safe and every driven operation must keep it consistent, so
// reusing it across fuzz executions both speeds the fuzz loop up and
// compounds state: later executions run against whatever site/trajectory
// churn earlier ones left behind.
var (
	fuzzOnce sync.Once
	fuzzEng  *Sharded
)

func fuzzFixture(t testing.TB) *Sharded {
	t.Helper()
	fuzzOnce.Do(func() {
		city, err := gen.GenerateCity(gen.CityConfig{
			Topology: gen.GridMesh, Nodes: 150, SpanKm: 6, Jitter: 0.2, Seed: 601,
		})
		if err != nil {
			t.Fatal(err)
		}
		store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 20, Seed: 602})
		if err != nil {
			t.Fatal(err)
		}
		sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 40, Seed: 603})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := tops.NewInstance(city.Graph, store, sites)
		if err != nil {
			t.Fatal(err)
		}
		fuzzEng, err = Build(inst, Options{Shards: 3, Build: core.Options{Gamma: 0.75, TauMin: 0.3, TauMax: 4.8}})
		if err != nil {
			t.Fatal(err)
		}
	})
	return fuzzEng
}

// FuzzShardRouter holds the routing core — the partition, update routing,
// ownership reduce, scatter and gather — to a "reject or serve, never
// panic" contract under adversarial site and trajectory ids, hostile k/τ
// values, and arbitrary op interleavings. The input is consumed as a little
// op stream: one op byte, then 4-byte operands.
func FuzzShardRouter(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 7, 0, 0, 0, 3, 200, 0, 0, 0, 4, 5, 0, 0, 0})
	f.Add([]byte{5, 0x00, 0x00, 0x80, 0x7f, 6, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 12, 0, 0, 0, 0, 12, 0, 0, 0, 2, 12, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzFixture(t)
		ctx := context.Background()
		pos := 0
		next := func() (uint32, bool) {
			if pos+4 > len(data) {
				return 0, false
			}
			v := binary.LittleEndian.Uint32(data[pos:])
			pos += 4
			return v, true
		}
		for pos < len(data) {
			op := data[pos]
			pos++
			switch op % 7 {
			case 0: // partition probes with a raw id
				raw, ok := next()
				if !ok {
					return
				}
				v := roadnet.NodeID(int32(raw))
				if n := len(s.conns); Of(v, n) < 0 || Of(v, n) >= n {
					t.Fatalf("node %d mapped to shard %d of %d", v, Of(v, n), n)
				}
			case 1: // add a site at a raw id (errors allowed, panics not)
				raw, ok := next()
				if !ok {
					return
				}
				_ = s.AddSite(roadnet.NodeID(int32(raw)))
			case 2: // delete a site at a raw id
				raw, ok := next()
				if !ok {
					return
				}
				_ = s.DeleteSite(roadnet.NodeID(int32(raw)))
			case 3: // delete a trajectory at a raw id
				raw, ok := next()
				if !ok {
					return
				}
				_, _ = s.Update(ctx, wal.Update{Op: wal.KindDeleteTrajectory.String(), ID: int64(int32(raw))})
			case 4: // ingest a two-node trajectory from raw ids
				a, ok := next()
				if !ok {
					return
				}
				b, ok := next()
				if !ok {
					return
				}
				_, _ = s.Update(ctx, wal.Update{Op: wal.KindAddTrajectory.String(), Nodes: []int64{int64(int32(a) % 150), int64(int32(b) % 150)}})
			case 5: // query with hostile k and τ (NaN, ±Inf, huge, negative)
				kraw, ok := next()
				if !ok {
					return
				}
				traw, ok := next()
				if !ok {
					return
				}
				tau := float64(math.Float32frombits(traw))
				_, _ = s.Query(ctx, core.QueryOptions{K: int(int32(kraw)), Pref: tops.Binary(tau)})
			default: // the same hostile query twice: one verdict, one answer
				kraw, ok := next()
				if !ok {
					return
				}
				q := core.QueryOptions{K: int(int32(kraw % 64)), Pref: tops.Linear(0.2 + float64(kraw%400)/100)}
				a, errA := s.Query(ctx, q)
				b, errB := s.Query(ctx, q)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("identical queries diverged: %v vs %v", errA, errB)
				}
				if errA == nil {
					sameAnswer(t, "repeated query", a, b)
				}
			}
		}
	})
}

// FuzzReadCover holds the cover codec to its contract for arbitrary bytes:
// ReadCover returns an error or a valid cover, never panics, and whatever
// it accepts re-encodes to the very same bytes and decodes again to an
// equal cover, weights and SC side included.
func FuzzReadCover(f *testing.F) {
	cs := tops.NewCoverSets(3, 5)
	cs.SetTCArrays(0, []int32{1, 4}, []float64{1, 0.5})
	cs.SetTCArrays(2, []int32{0}, []float64{-0.25})
	valid := AppendCover(nil, cs, []core.ClusterID{3, 17, 40})
	f.Add(valid)
	f.Add(AppendCover(nil, tops.NewCoverSets(0, 0), nil))
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid[:4]...), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte("NCCV"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, reps, err := ReadCover(data)
		if err != nil {
			return
		}
		if cs.N() != len(reps) {
			t.Fatalf("%d rows for %d representatives", cs.N(), len(reps))
		}
		again := AppendCover(nil, cs, reps)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted cover re-encodes to other bytes:\n  %x\nwant\n  %x", again, data)
		}
		back, backReps, err := ReadCover(again)
		if err != nil {
			t.Fatalf("re-encoded cover does not decode: %v", err)
		}
		sameCover(t, "re-decoded cover", back, cs)
		if !slices.Equal(backReps, reps) {
			t.Fatalf("re-decoded cover stands for clusters %v, want %v", backReps, reps)
		}
	})
}
