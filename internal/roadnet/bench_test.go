package roadnet

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return euclidGraph(rng, n)
}

func BenchmarkDijkstraFull(b *testing.B) {
	g := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, NodeID(i%g.NumNodes()), Forward)
	}
}

func BenchmarkDijkstraBounded(b *testing.B) {
	g := benchGraph(b, 5000)
	s := NewScratch(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Bounded(g, NodeID(i%g.NumNodes()), Forward, 2.0)
	}
}

func BenchmarkBoundedRoundTrips(b *testing.B) {
	g := benchGraph(b, 5000)
	s := NewScratch(g)
	var out []NodeDr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.RoundTrips(g, NodeID(i%g.NumNodes()), 2.0, out)
	}
}

func BenchmarkAStar(b *testing.B) {
	g := benchGraph(b, 5000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		dst := NodeID(rng.Intn(g.NumNodes()))
		AStar(g, src, dst)
	}
}

func BenchmarkSCC(b *testing.B) {
	g := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StronglyConnectedComponents(g)
	}
}
