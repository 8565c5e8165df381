package shard

import (
	"testing"

	"netclus/internal/gen"
	"netclus/internal/roadnet"
)

func testGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{Topology: gen.GridMesh, Nodes: 120, SpanKm: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return city.Graph
}

func TestPartitionersTotalAndDeterministic(t *testing.T) {
	g := testGraph(t)
	for _, name := range []string{HashPartitioner, GridPartitioner} {
		p, err := NewPartitioner(name, 5, g)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name || p.Shards() != 5 {
			t.Fatalf("%s: identity mismatch: %s/%d", name, p.Name(), p.Shards())
		}
		// Total over hostile ids, and stable across a second instance.
		q, err := NewPartitioner(name, 5, g)
		if err != nil {
			t.Fatal(err)
		}
		hostile := []roadnet.NodeID{-1, -1 << 30, 0, 1, 119, 120, 1 << 30, roadnet.InvalidNode}
		for _, v := range hostile {
			j := p.Shard(v)
			if j < 0 || j >= 5 {
				t.Fatalf("%s: node %d mapped to %d", name, v, j)
			}
			if j != q.Shard(v) {
				t.Fatalf("%s: node %d not deterministic", name, v)
			}
		}
		// Every in-graph node covered; distribution not degenerate.
		counts := make([]int, 5)
		for v := 0; v < g.NumNodes(); v++ {
			counts[p.Shard(roadnet.NodeID(v))]++
		}
		nonEmpty := 0
		for _, c := range counts {
			if c > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Fatalf("%s: all nodes collapsed into %d shard(s): %v", name, nonEmpty, counts)
		}
	}
	if _, err := NewPartitioner("mod-n", 3, g); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	if _, err := NewPartitioner(HashPartitioner, 0, g); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

func TestGridPartitionerNilGraph(t *testing.T) {
	// A grid partitioner over no graph degrades to the hash route rather
	// than crashing.
	p := newGridPart(3, nil)
	for _, v := range []roadnet.NodeID{-5, 0, 1000} {
		if j := p.Shard(v); j < 0 || j >= 3 {
			t.Fatalf("nil-graph grid mapped %d to %d", v, j)
		}
	}
}
