package tops

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceOpt enumerates all k-subsets — the oracle for Optimal.
func bruteForceOpt(cs *CoverSets, k int) float64 {
	n := cs.N()
	best := 0.0
	var sel []SiteID
	var rec func(start int)
	rec = func(start int) {
		if len(sel) == k {
			if u, _ := EvaluateSelection(cs, sel); u > best {
				best = u
			}
			return
		}
		for s := start; s < n; s++ {
			sel = append(sel, SiteID(s))
			rec(s + 1)
			sel = sel[:len(sel)-1]
		}
	}
	rec(0)
	return best
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	type input struct {
		cs *CoverSets
		k  int
	}
	// Paper Example 1 (Table 3): the optimum at k = 2 is {s1, s3}, U = 1.0.
	inputs := []input{{paperExample1(), 2}}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(5)
		inputs = append(inputs, input{randomCoverSets(rng, n, 20, 0.3, trial%2 == 0), 1 + rng.Intn(3)})
	}
	for trial, in := range inputs {
		res, err := Optimal(in.cs, OptimalOptions{K: in.k})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceOpt(in.cs, in.k)
		if !res.Exact {
			t.Fatalf("trial %d: not exact", trial)
		}
		if math.Abs(res.Utility-want) > 1e-9 {
			t.Fatalf("trial %d: Optimal %v != brute force %v", trial, res.Utility, want)
		}
		if len(res.Selected) > in.k {
			t.Fatalf("trial %d: selected %d > k", trial, len(res.Selected))
		}
		if trial == 0 && math.Abs(res.Utility-1.0) > 1e-9 {
			t.Fatalf("paper Example 1: optimum %v, want 1.0", res.Utility)
		}
	}

	// The optimum never decreases with k.
	cs := randomCoverSets(rng, 7, 20, 0.35, false)
	prev := -1.0
	for k := 1; k <= 4; k++ {
		res, err := Optimal(cs, OptimalOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.Utility < prev-1e-9 {
			t.Fatalf("optimal utility decreased with k: %v after %v", res.Utility, prev)
		}
		prev = res.Utility
	}
}

func TestOptimalNodeCap(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cs := randomCoverSets(rng, 25, 80, 0.3, false)
	res, err := Optimal(cs, OptimalOptions{K: 6, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("capped run reported exact")
	}
	// Must still return at least the greedy seed quality.
	greedy, _ := IncGreedy(cs, GreedyOptions{K: 6})
	if res.Utility < greedy.Utility-1e-9 {
		t.Errorf("capped optimal %v below greedy %v", res.Utility, greedy.Utility)
	}
}

func TestOptimalValidation(t *testing.T) {
	cs := paperExample1()
	if _, err := Optimal(cs, OptimalOptions{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Optimal(cs, OptimalOptions{K: 5}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestOptimalAtLeastGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		cs := randomCoverSets(rng, 14, 40, 0.25, false)
		k := 2 + rng.Intn(4)
		opt, err := Optimal(cs, OptimalOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		greedy, _ := IncGreedy(cs, GreedyOptions{K: k})
		if opt.Utility < greedy.Utility-1e-9 {
			t.Fatalf("trial %d: OPT %v < greedy %v", trial, opt.Utility, greedy.Utility)
		}
	}
}
