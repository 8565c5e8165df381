package tops

import (
	"math"
	"math/rand"
	"testing"
)

// paperExample1 reproduces Table 2 of the paper: two trajectories, three
// sites, with the exact preference scores listed there.
func paperExample1() *CoverSets {
	cs := NewCoverSets(3, 2)
	// T1: s1=0.4, s2=0.11, s3=0 (no pair); T2: s1=0, s2=0.5, s3=0.6.
	cs.AddPair(0, 0, 0.4)
	cs.AddPair(1, 0, 0.11)
	cs.AddPair(1, 1, 0.5)
	cs.AddPair(2, 1, 0.6)
	return cs
}

func TestIncGreedyPaperExample1(t *testing.T) {
	// Table 3: INC-GREEDY picks {s2, s1} for U = 0.9; the optimum is
	// {s1, s3} with U = 1.0.
	cs := paperExample1()
	res, err := IncGreedy(cs, GreedyOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utility-0.9) > 1e-12 {
		t.Errorf("greedy utility = %v, want 0.9", res.Utility)
	}
	if len(res.Selected) != 2 || res.Selected[0] != 1 || res.Selected[1] != 0 {
		t.Errorf("greedy selected %v, want [s2 s1] = [1 0]", res.Selected)
	}
	// First iteration gain is w(s2) = 0.11 + 0.5 = 0.61 as in §3.3.
	if math.Abs(res.UtilityPerIter[0]-0.61) > 1e-12 {
		t.Errorf("first-iteration utility = %v, want 0.61", res.UtilityPerIter[0])
	}
	if res.Covered != 2 {
		t.Errorf("covered = %d", res.Covered)
	}

	opt, err := Optimal(cs, OptimalOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.Utility-1.0) > 1e-12 || !opt.Exact {
		t.Errorf("optimal utility = %v exact=%v, want 1.0 true", opt.Utility, opt.Exact)
	}
}

func TestIncGreedyUtilityMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		cs := randomCoverSets(rng, 25, 60, 0.25, trial%2 == 0)
		res, err := IncGreedy(cs, GreedyOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		u, covered := EvaluateSelection(cs, res.Selected)
		if math.Abs(u-res.Utility) > 1e-9 {
			t.Fatalf("trial %d: incremental utility %v != evaluated %v", trial, res.Utility, u)
		}
		if covered != res.Covered {
			t.Fatalf("trial %d: covered %d != evaluated %d", trial, res.Covered, covered)
		}
	}
}

func TestIncGreedyMonotonePerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cs := randomCoverSets(rng, 40, 100, 0.15, false)
	res, err := IncGreedy(cs, GreedyOptions{K: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.UtilityPerIter); i++ {
		if res.UtilityPerIter[i] < res.UtilityPerIter[i-1]-1e-12 {
			t.Fatal("utility decreased across iterations")
		}
	}
	// Marginal gains must be non-increasing (submodularity surface check).
	prevGain := math.Inf(1)
	last := 0.0
	for _, u := range res.UtilityPerIter {
		gain := u - last
		if gain > prevGain+1e-9 {
			t.Fatalf("marginal gain increased: %v after %v", gain, prevGain)
		}
		prevGain = gain
		last = u
	}
}

func TestIncGreedyApproximationBound(t *testing.T) {
	// U(greedy) >= (1-1/e) * OPT on random small instances (Lemma 1).
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 15; trial++ {
		cs := randomCoverSets(rng, 12, 30, 0.3, trial%2 == 0)
		k := 2 + rng.Intn(3)
		res, err := IncGreedy(cs, GreedyOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimal(cs, OptimalOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Exact {
			t.Fatal("small instance should solve exactly")
		}
		// Theorem 3: U(greedy) >= max{1-1/e, k/n}·OPT.
		bound := max(1-1/math.E, float64(k)/float64(cs.N()))
		if res.Utility < bound*opt.Utility-1e-9 {
			t.Fatalf("trial %d: greedy %v below %v * OPT %v", trial, res.Utility, bound, opt.Utility)
		}
		if res.Utility > opt.Utility+1e-9 {
			t.Fatalf("trial %d: greedy %v exceeds OPT %v", trial, res.Utility, opt.Utility)
		}
	}
}

func TestIncGreedyExistingServices(t *testing.T) {
	cs := paperExample1()
	// With s2 already existing, greedy with k=1 should pick s1
	// (marginal 0.29) over s3 (marginal 0.1).
	res, err := IncGreedy(cs, GreedyOptions{K: 1, InitialSites: []SiteID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Fatalf("selected %v, want [0]", res.Selected)
	}
	// Total utility includes the existing service's baseline.
	if math.Abs(res.Utility-0.9) > 1e-12 {
		t.Errorf("utility = %v, want 0.9", res.Utility)
	}
}

func TestIncGreedyExistingServicesNeverHurt(t *testing.T) {
	// Adding existing services can only increase total utility (§7.3).
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		cs := randomCoverSets(rng, 20, 50, 0.25, false)
		plain, _ := IncGreedy(cs, GreedyOptions{K: 3})
		withES, err := IncGreedy(cs, GreedyOptions{K: 3, InitialSites: []SiteID{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if withES.Utility < plain.Utility-1e-9 {
			t.Fatalf("existing services reduced utility: %v < %v", withES.Utility, plain.Utility)
		}
	}
}

func TestIncGreedyTargetCoverage(t *testing.T) {
	// TOPS4: select the smallest prefix reaching β coverage.
	rng := rand.New(rand.NewSource(26))
	cs := randomCoverSets(rng, 30, 100, 0.2, true)
	res, err := IncGreedy(cs, GreedyOptions{TargetCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Covered) < 0.5*float64(cs.M) {
		// Only acceptable if no more coverage was available at all.
		full, _ := IncGreedy(cs, GreedyOptions{K: cs.N()})
		if full.Covered > res.Covered {
			t.Fatalf("stopped at %d covered with more available (%d)", res.Covered, full.Covered)
		}
	}
	// Removing the last selected site must drop coverage below target
	// (minimality of the greedy prefix).
	if len(res.Selected) > 1 {
		u, covered := EvaluateSelection(cs, res.Selected[:len(res.Selected)-1])
		_ = u
		if float64(covered) >= 0.5*float64(cs.M) {
			t.Error("greedy selected more sites than needed for target")
		}
	}
}

func TestIncGreedyTargetCoverageImpossible(t *testing.T) {
	if _, err := IncGreedy(NewCoverSets(3, 5), GreedyOptions{TargetCoverage: 1.5}); err == nil {
		t.Error("coverage > 1 accepted")
	}
	// Empty cover sets: no site adds coverage; selection must stop early.
	cs := NewCoverSets(3, 5)
	res, err := IncGreedy(cs, GreedyOptions{TargetCoverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected %v from empty cover sets", res.Selected)
	}
}

func TestIncGreedyValidation(t *testing.T) {
	cs := paperExample1()
	if _, err := IncGreedy(cs, GreedyOptions{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := IncGreedy(cs, GreedyOptions{K: 4}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := IncGreedy(cs, GreedyOptions{K: 1, InitialSites: []SiteID{9}}); err == nil {
		t.Error("out-of-range initial site accepted")
	}
}

func TestIncGreedyKEqualsN(t *testing.T) {
	cs := paperExample1()
	res, err := IncGreedy(cs, GreedyOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 3 {
		t.Errorf("selected %d sites", len(res.Selected))
	}
	// Selecting everything yields U(S) = 0.4 + 0.6 = 1.0.
	if math.Abs(res.Utility-1.0) > 1e-12 {
		t.Errorf("U(S) = %v", res.Utility)
	}
}

// randomCoverSets builds a random instance: n sites, m trajectories, each
// (site, trajectory) pair covered with probability p; binary scores when
// binary is true, else uniform (0,1].
func randomCoverSets(rng *rand.Rand, n, m int, p float64, binary bool) *CoverSets {
	cs := NewCoverSets(n, m)
	for s := 0; s < n; s++ {
		for tr := 0; tr < m; tr++ {
			if rng.Float64() < p {
				score := 1.0
				if !binary {
					score = rng.Float64()*0.999 + 0.001
				}
				cs.AddPair(int32(s), int32(tr), score)
			}
		}
	}
	return cs
}

func TestSubmodularityProperty(t *testing.T) {
	// U(Q ∪ {s}) − U(Q) >= U(R ∪ {s}) − U(R) for Q ⊆ R (Theorem 2).
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 50; trial++ {
		cs := randomCoverSets(rng, 12, 30, 0.3, trial%2 == 0)
		// Random nested Q ⊆ R and site s outside R.
		var q, r []SiteID
		for s := 0; s < cs.N()-1; s++ {
			if rng.Float64() < 0.3 {
				r = append(r, SiteID(s))
				if rng.Float64() < 0.5 {
					q = append(q, SiteID(s))
				}
			}
		}
		s := SiteID(cs.N() - 1)
		uQ, _ := EvaluateSelection(cs, q)
		uQs, _ := EvaluateSelection(cs, append(append([]SiteID(nil), q...), s))
		uR, _ := EvaluateSelection(cs, r)
		uRs, _ := EvaluateSelection(cs, append(append([]SiteID(nil), r...), s))
		if (uQs-uQ)-(uRs-uR) < -1e-9 {
			t.Fatalf("trial %d: submodularity violated", trial)
		}
		// Monotonicity: U(R) >= U(Q).
		if uR < uQ-1e-9 {
			t.Fatalf("trial %d: monotonicity violated", trial)
		}
	}
}
