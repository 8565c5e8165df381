package bench

import (
	"math"
	"math/rand"
	"testing"

	"netclus/internal/tops"
)

// TestIncGreedyLazyMatchesPlain holds ablation-lazy's baseline to the
// utility of Algorithm 1 (tops.IncGreedy) on random covers, so the
// ablation's "utility equal?" column compares two greedy maximizers.
func TestIncGreedyLazyMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		const n, m = 30, 80
		cs := tops.NewCoverSets(n, m)
		for s := int32(0); s < n; s++ {
			for tr := int32(0); tr < m; tr++ {
				if rng.Float64() < 0.2 {
					cs.AddPair(s, tr, rng.Float64()*0.999+0.001)
				}
			}
		}
		k := 1 + rng.Intn(8)
		plain, err := tops.IncGreedy(cs, tops.GreedyOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if lazy := lazyGreedy(cs, k); math.Abs(plain.Utility-lazy) > 1e-9 {
			t.Fatalf("trial %d: plain %v != lazy %v", trial, plain.Utility, lazy)
		}
	}
}
