package tops

import (
	"math/rand"
	"testing"
)

func microInstance(b *testing.B) *Instance {
	b.Helper()
	inst, _ := gridInstance(b, 1500, 300, 0, 99) // all nodes as sites
	return inst
}

func BenchmarkBuildDistanceIndex(b *testing.B) {
	inst := microInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDistanceIndex(inst, 2.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCoverSets(b *testing.B) {
	inst := microInstance(b)
	idx, err := BuildDistanceIndex(inst, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCoverSets(idx, Binary(0.8)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCoverSets(b *testing.B) *CoverSets {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	return randomCoverSets(rng, 2000, 5000, 0.01, true)
}

func BenchmarkIncGreedyPlain(b *testing.B) {
	cs := benchCoverSets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IncGreedy(cs, GreedyOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFMGreedy(b *testing.B) {
	cs := benchCoverSets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FMGreedy(cs, FMGreedyOptions{K: 10, F: 30, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostGreedy(b *testing.B) {
	cs := benchCoverSets(b)
	costs := make([]float64, cs.N())
	rng := rand.New(rand.NewSource(6))
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CostGreedy(cs, CostOptions{Costs: costs, Budget: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactDetour(b *testing.B) {
	inst := microInstance(b)
	tr := inst.Trajs.Get(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactDetour(inst.G, tr, inst.SiteNode(SiteID(i%inst.N())))
	}
}
