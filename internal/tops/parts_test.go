package tops

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scoredPair is one staged TC entry of the fuzzer's random covers.
type scoredPair struct {
	traj  int32
	score float64
}

// randomParts splits the cover whose TC lists are tc (over m trajectories)
// into 1–4 parts: every site goes to a random part, local sites ascend by
// global index with never-candidate (-1) slots of random TC lists mixed in,
// every part but the first spans only a random prefix of the trajectory
// universe it needs, and the parts come back in a random order. A single
// part without -1 slots sometimes takes the identity (nil Global).
func randomParts(rng *rand.Rand, tc [][]scoredPair, m int, score func() float64) []Part {
	np := 1 + rng.Intn(4)
	owner := make([]int, len(tc))
	for s := range owner {
		owner[s] = rng.Intn(np)
	}
	parts := make([]Part, np)
	for pi := range parts {
		var global []int32
		var lists [][]scoredPair
		for s := range tc {
			for rng.Intn(6) == 0 {
				var junk []scoredPair
				for tr := 0; tr < m; tr++ {
					if rng.Intn(3) == 0 {
						junk = append(junk, scoredPair{int32(tr), score()})
					}
				}
				global, lists = append(global, -1), append(lists, junk)
			}
			if owner[s] == pi {
				global, lists = append(global, int32(s)), append(lists, tc[s])
			}
		}
		mp := m
		if pi > 0 {
			hi := 0
			for _, l := range lists {
				for _, p := range l {
					hi = max(hi, int(p.traj)+1)
				}
			}
			mp = hi + rng.Intn(m-hi+1)
		}
		cs := NewCoverSets(len(global), mp)
		for li, l := range lists {
			for _, p := range l {
				cs.AddPair(int32(li), p.traj, p.score)
			}
		}
		parts[pi] = Part{CS: cs, Global: global}
		if np == 1 && !slices.Contains(global, -1) && rng.Intn(2) == 0 {
			parts[pi].Global = nil
		}
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return parts
}

// FuzzIncGreedyParts is the differential behind the partitioned greedy: a
// random cover (with non-positive scores on some seeds, which turns off the
// weights-as-marginals seeding) split at random into parts must select
// exactly what IncGreedy selects on the whole cover, with bit-equal
// utilities — plain, over existing services (where k may exceed the
// candidates left, exhausting them), and to a target coverage.
func FuzzIncGreedyParts(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(24), 1+rng.Intn(20)
		nonPositive := rng.Intn(3) == 0
		score := func() float64 {
			switch r := rng.Intn(6); {
			case r < 2:
				return float64(1+rng.Intn(3)) / 4 // ties across parts
			case r == 2 && nonPositive:
				return -float64(rng.Intn(2)) / 2 // -0 or -0.5
			default:
				return rng.Float64()
			}
		}
		tc := make([][]scoredPair, n)
		whole := NewCoverSets(n, m)
		for s := range tc {
			for _, tr := range rng.Perm(m) { // TC lists in no particular order
				if rng.Intn(3) == 0 {
					p := scoredPair{int32(tr), score()}
					tc[s] = append(tc[s], p)
					whole.AddPair(int32(s), p.traj, p.score)
				}
			}
		}
		parts := randomParts(rng, tc, m, score)

		opts := GreedyOptions{K: 1 + rng.Intn(n)}
		switch mode % 3 {
		case 1:
			for s := 0; s < n; s++ {
				if rng.Intn(3) == 0 {
					opts.InitialSites = append(opts.InitialSites, SiteID(s))
				}
			}
			rng.Shuffle(len(opts.InitialSites), func(i, j int) {
				opts.InitialSites[i], opts.InitialSites[j] = opts.InitialSites[j], opts.InitialSites[i]
			})
		case 2:
			opts.TargetCoverage = 1 - rng.Float64() // (0, 1]
		}
		want, err := IncGreedy(whole, opts)
		if err != nil {
			t.Fatal(err)
		}
		var g GreedyScratch
		for run := 0; run < 2; run++ { // the second run reuses warm scratch
			got, err := IncGreedyParts(parts, n, opts, &g)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Selected, want.Selected) || got.Covered != want.Covered ||
				math.Float64bits(got.Utility) != math.Float64bits(want.Utility) ||
				!slices.EqualFunc(got.UtilityPerIter, want.UtilityPerIter, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
				t.Fatalf("run %d over %d parts, %+v:\n got %+v\nwant %+v", run, len(parts), opts, got, want)
			}
		}
	})
}

func TestIncGreedyPartsValidation(t *testing.T) {
	cs := NewCoverSets(2, 1)
	cs.AddPair(0, 0, 1)
	parts := []Part{{CS: cs}}
	for _, opts := range []GreedyOptions{
		{K: 0},
		{K: 3},
		{K: 1, InitialSites: []SiteID{2}},
		{TargetCoverage: 1.5},
		{K: 1, Lazy: true},
	} {
		if _, err := IncGreedyParts(parts, 2, opts, nil); err == nil {
			t.Fatalf("IncGreedyParts accepted %+v", opts)
		}
	}
}
