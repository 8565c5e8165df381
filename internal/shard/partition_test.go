package shard

import (
	"testing"

	"netclus/internal/gen"
	"netclus/internal/roadnet"
)

func TestPartitionersTotalAndDeterministic(t *testing.T) {
	city, err := gen.GenerateCity(gen.CityConfig{Topology: gen.GridMesh, Nodes: 120, SpanKm: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g := city.Graph
	// Total over hostile ids.
	hostile := []roadnet.NodeID{-1, -1 << 30, 0, 1, 119, 120, 1 << 30, roadnet.InvalidNode}
	for _, v := range hostile {
		if j := Of(v, 5); j < 0 || j >= 5 {
			t.Fatalf("node %d mapped to %d", v, j)
		}
	}
	// The bytes of the rule: a member and a router of different builds must
	// route every node alike (TestWALGolden pins the same through the logs).
	for v, want := range map[roadnet.NodeID]int{0: 2, 1: 1, 4: 0, 119: 1, -1: 0, 1 << 30: 0} {
		if j := Of(v, 3); j != want {
			t.Errorf("Of(%d, 3) = %d, want %d", v, j, want)
		}
	}
	// Every in-graph node covered; distribution not degenerate.
	counts := make([]int, 5)
	for v := 0; v < g.NumNodes(); v++ {
		counts[Of(roadnet.NodeID(v), 5)]++
	}
	nonEmpty := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("all nodes collapsed into %d shard(s): %v", nonEmpty, counts)
	}
}
