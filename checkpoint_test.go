package netclus

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"
)

// checkpointFixture generates a tiny deterministic dataset (120 nodes, 20
// trajectories, 40 sites): with a short ladder its checkpoint is small
// enough for the fuzzer to run thousands of executions a second.
func checkpointFixture(tb testing.TB) *Instance {
	tb.Helper()
	city, err := GenerateCity(CityConfig{
		Topology: GridMesh, Nodes: 120, SpanKm: 4, Jitter: 0.2,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 421,
	})
	if err != nil {
		tb.Fatal(err)
	}
	store, err := GenerateTrajectories(city, TrajConfig{Count: 20, Seed: 422})
	if err != nil {
		tb.Fatal(err)
	}
	sites, err := SampleSites(city.Graph, SiteConfig{Count: 40, Seed: 423})
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := NewInstance(city.Graph, store, sites)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// FuzzLoadCheckpoint holds the one on-disk format topsserve reads from
// outside the program (-load, -cache, the recovery checkpoint, a follower's
// bootstrap) to "reject, or load into an engine that answers a query" —
// never a panic. Seeds: a single-index checkpoint of a mutated dataset and
// the same checkpoint with an NCSM payload (what an in-process sharded
// engine used to write), each with its truncations and bit flips across the
// dataset section and the inner snapshot.
func FuzzLoadCheckpoint(f *testing.F) {
	idx, err := Build(checkpointFixture(f), BuildOptions{Gamma: 0.75, TauMin: 0.8, TauMax: 1.2})
	if err != nil {
		f.Fatal(err)
	}
	eng, err := NewEngine(idx, EngineOptions{})
	if err != nil {
		f.Fatal(err)
	}
	inst := idx.TopsInstance()
	g := inst.G
	if err := eng.DeleteSite(inst.Sites[3]); err != nil {
		f.Fatal(err)
	}
	if _, err := eng.AddTrajectory(inst.Trajs.Get(0)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	single := buf.Bytes()

	// The NCSM payload sits where the NCSS one does: after the dataset
	// section (magic, version, epoch, sites, store, crc).
	nSites := int(binary.LittleEndian.Uint32(single[16:]))
	storeLen := int(binary.LittleEndian.Uint64(single[20+4*nSites:]))
	inner := 28 + 4*nSites + storeLen + 4
	if string(single[inner:inner+4]) != "NCSS" {
		f.Fatalf("no NCSS payload at offset %d", inner)
	}
	sharded := append([]byte(nil), single...)
	copy(sharded[inner:], "NCSM")
	if _, err := LoadCheckpoint(bytes.NewReader(sharded), g, EngineOptions{}); err == nil || !strings.Contains(err.Error(), "NCSM in-process sharded snapshot") {
		f.Fatalf("an NCSM-payload checkpoint: err = %v, want the error that names it", err)
	}

	for _, valid := range [][]byte{single, sharded} {
		f.Add(valid)
		for _, n := range []int{0, 16, len(valid) / 2, len(valid) - 1} {
			f.Add(valid[:n])
		}
		for _, off := range []int{0, 4, 12, 20, len(valid) / 3, len(valid) / 2, 2 * len(valid) / 3, len(valid) - 9} {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0x40
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := LoadCheckpoint(bytes.NewReader(data), g, EngineOptions{})
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		if _, err := eng.Query(context.Background(), QueryOptions{K: 3, Pref: Binary(0.8)}); err != nil {
			t.Fatalf("accepted checkpoint cannot serve a query: %v", err)
		}
	})
}
