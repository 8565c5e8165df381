package netclus

import (
	"bytes"
	"context"
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
// never a panic. Seeds: a single-index and a 2-shard checkpoint of a
// mutated dataset, their truncations, and bit flips across the dataset
// section, the inner snapshot and the sharded manifest.
func FuzzLoadCheckpoint(f *testing.F) {
	build := BuildOptions{Gamma: 0.75, TauMin: 0.8, TauMax: 1.2}
	single := checkpointFixture(f)
	idx, err := Build(single, build)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := NewEngine(idx, EngineOptions{})
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := NewShardedEngine(checkpointFixture(f), ShardedOptions{Shards: 2, Build: build})
	if err != nil {
		f.Fatal(err)
	}
	g := single.G
	for _, e := range []DurableEngine{eng, sharded} {
		if err := e.DeleteSite(single.Sites[3]); err != nil {
			f.Fatal(err)
		}
		if _, err := e.AddTrajectory(single.Trajs.Get(0)); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := e.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
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
