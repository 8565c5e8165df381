package tops

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// coverOf is the Finalize twin of the rows: the cover a fresh fill would
// build over m trajectories.
func coverOf(rows [][]scoredPair, m int) *CoverSets {
	cs := NewCoverSets(len(rows), m)
	for s, row := range rows {
		for _, p := range row {
			cs.AddPair(int32(s), p.traj, p.score)
		}
	}
	cs.Finalize()
	return cs
}

// requireSameCover fails unless got and want hold the same bits through
// every read accessor: size, Pairs, AllPositiveScores, Weights and every TC
// and SC row in order.
func requireSameCover(t testing.TB, label string, got, want *CoverSets) {
	t.Helper()
	if got.M != want.M || got.N() != want.N() || got.Pairs() != want.Pairs() {
		t.Fatalf("%s: %d sites x %d trajectories, %d pairs; want %d x %d, %d", label,
			got.N(), got.M, got.Pairs(), want.N(), want.M, want.Pairs())
	}
	if got.AllPositiveScores() != want.AllPositiveScores() {
		t.Fatalf("%s: AllPositiveScores %v, want %v", label, got.AllPositiveScores(), want.AllPositiveScores())
	}
	for s := int32(0); int(s) < got.N(); s++ {
		if math.Float64bits(got.Weights[s]) != math.Float64bits(want.Weights[s]) {
			t.Fatalf("%s: weight of site %d is %v, want %v", label, s, got.Weights[s], want.Weights[s])
		}
		gt, gs := got.TC(s)
		wt, ws := want.TC(s)
		if got.TCLen(s) != len(wt) || !equalRows(gt, gs, wt, ws) {
			t.Fatalf("%s: TC(%d) = %v %v, want %v %v", label, s, gt, gs, wt, ws)
		}
	}
	for tr := int32(0); int(tr) < got.M; tr++ {
		gt, gs := got.SC(tr)
		wt, ws := want.SC(tr)
		if !equalRows(gt, gs, wt, ws) {
			t.Fatalf("%s: SC(%d) = %v %v, want %v %v", label, tr, gt, gs, wt, ws)
		}
	}
}

// sameArray reports whether a and b start at the same array element.
func sameArray(a, b []int32) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// appendKinds counts what a chain of FinalizeAppends did: rows that took
// their new entries in their own room, rows moved to the arena's tail, and
// appends that copied every row into a fresh arena.
type appendKinds struct {
	inPlace, moved, copied int
}

// classify records how next was appended onto prev.
func (k *appendKinds) classify(prev, next *CoverSets) {
	if !sameArray(next.tcTraj, prev.tcTraj) {
		k.copied++
		return
	}
	for s := range next.Weights {
		if next.tcOff[s] != prev.tcOff[s] {
			k.moved++
		} else if next.tcEnd[s] != prev.tcEnd[s] {
			k.inPlace++
		}
	}
}

// runAppendChain grows a random cover of n sites through the given number of
// windows, each appending new trajectories and some deleting old ones, and
// checks after every append that every cover published so far — each
// predecessor, and a sibling appended onto each already-claimed predecessor
// — still equals the Finalize twin of its own rows. publish, when not nil,
// sees every cover as it is appended.
func runAppendChain(t testing.TB, rng *rand.Rand, n, windows int, publish func(*CoverSets)) appendKinds {
	neg := rng.Intn(4) == 0
	score := func() float64 {
		if neg && rng.Intn(30) == 0 {
			return -rng.Float64()
		}
		return 0.1 + rng.Float64()
	}
	type published struct {
		cs   *CoverSets
		rows [][]scoredPair
		m    int
	}
	snapshot := func(rows [][]scoredPair) [][]scoredPair {
		out := make([][]scoredPair, len(rows))
		for s := range rows {
			out[s] = slices.Clone(rows[s])
		}
		return out
	}
	// grow stages a window of add new trajectories onto rows (a copy when
	// fork) and returns the staged cover and the grown rows.
	grow := func(rows [][]scoredPair, m, add int, fork bool) (*CoverSets, [][]scoredPair) {
		if fork {
			rows = snapshot(rows)
		}
		cs := NewCoverSets(n, m+add)
		for s := range rows {
			for tr := m; tr < m+add; tr++ {
				if rng.Intn(3) == 0 {
					p := scoredPair{int32(tr), score()}
					cs.AddPair(int32(s), p.traj, p.score)
					rows[s] = append(rows[s], p)
				}
			}
		}
		return cs, rows
	}

	m := rng.Intn(40)
	boot, rows := grow(make([][]scoredPair, n), 0, m, false)
	boot.Finalize()
	cur := boot
	pub := []published{{cur, snapshot(rows), m}}
	curRows := pub[0].rows
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	var kinds appendKinds
	for w := 0; w < windows; w++ {
		add := rng.Intn(12)
		alive = append(alive, make([]bool, add)...)
		for i := m; i < m+add; i++ {
			alive[i] = true
		}
		// A window may delete trajectories (those of cur's rows send the
		// append down the copying path), or only carry earlier deletes.
		var live []bool
		if r := rng.Intn(6); r < 2 && m > 0 {
			if r == 0 {
				for range 1 + rng.Intn(3) {
					alive[rng.Intn(m)] = false
				}
				for s := range rows {
					rows[s] = slices.DeleteFunc(rows[s], func(p scoredPair) bool { return !alive[p.traj] })
				}
			}
			live = alive
		}
		next, grown := grow(rows, m, add, false)
		next.FinalizeAppend(cur, live)
		kinds.classify(cur, next)
		if publish != nil {
			publish(next)
		}
		rows = grown
		pub = append(pub, published{next, snapshot(rows), m + add})
		nextRows := pub[len(pub)-1].rows

		// A second append onto cur, which next may have claimed, must copy
		// into a cover of its own.
		if rng.Intn(3) == 0 {
			sib, sibRows := grow(curRows, m, rng.Intn(8), true)
			if live != nil {
				for s := range sibRows {
					sibRows[s] = slices.DeleteFunc(sibRows[s], func(p scoredPair) bool { return int(p.traj) < m && !alive[p.traj] })
				}
			}
			sib.FinalizeAppend(cur, live)
			pub = append(pub, published{sib, sibRows, sib.M})
		}
		for i, p := range pub {
			requireSameCover(t, fmt.Sprintf("window %d, cover %d", w, i), p.cs, coverOf(p.rows, p.m))
		}
		cur, curRows, m = next, nextRows, m+add
	}
	return kinds
}

// TestFinalizeAppendChain chains 48 appends per seed through in-place
// writes, row moves and copies into a fresh arena (the arena full, a
// deleted trajectory, or a claimed predecessor); after every one, every
// earlier cover (and every sibling appended onto an already-claimed
// predecessor) still equals a fresh Finalize of its own rows, which is what
// proves that no in-place write reaches a published view.
func TestFinalizeAppendChain(t *testing.T) {
	var total appendKinds
	for seed := int64(0); seed < 4; seed++ {
		k := runAppendChain(t, rand.New(rand.NewSource(seed)), 12, 48, nil)
		total.inPlace += k.inPlace
		total.moved += k.moved
		total.copied += k.copied
	}
	if total.inPlace == 0 || total.moved == 0 || total.copied == 0 {
		t.Fatalf("the chains missed a path: %+v", total)
	}
}

// FuzzFinalizeAppendChain is TestFinalizeAppendChain over random chain
// shapes: from a seed it draws the site count, the number of windows and
// every window.
func FuzzFinalizeAppendChain(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		runAppendChain(t, rng, 1+rng.Intn(24), 1+rng.Intn(40), nil)
	})
}

// TestFinalizeAppendConcurrentReaders runs greedy queries over every cover
// of a chain while later appends grow it in place, so the race detector
// sees any write that reaches a published cover's rows or SC lists.
func TestFinalizeAppendConcurrentReaders(t *testing.T) {
	var mu sync.Mutex
	var pub []*CoverSets
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var g GreedyScratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				covers := slices.Clone(pub)
				mu.Unlock()
				for _, cs := range covers {
					if _, err := IncGreedyScratch(cs, GreedyOptions{K: cs.N()}, &g); err != nil {
						t.Error(err)
						return
					}
					for tr := int32(0); int(tr) < cs.M; tr++ {
						cs.SC(tr)
					}
				}
			}
		}()
	}
	runAppendChain(t, rand.New(rand.NewSource(3)), 8, 48, func(cs *CoverSets) {
		mu.Lock()
		pub = append(pub, cs)
		mu.Unlock()
	})
	close(stop)
	wg.Wait()
}

// TestMemoryBytesCountsRetainedArrays: a compact cover counts 12 bytes per
// entry and direction plus its offset tables and weights, as Table 9 always
// has, and a cover FinalizeAppend built counts its room and spare capacity
// too.
func TestMemoryBytesCountsRetainedArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]scoredPair, 9)
	var grown *CoverSets
	for m, step := 0, 0; step < 6; step++ {
		next := NewCoverSets(len(rows), m+20)
		for s := range rows {
			for tr := m; tr < m+20; tr++ {
				if rng.Intn(3) == 0 {
					rows[s] = append(rows[s], scoredPair{int32(tr), 1})
					next.AddPair(int32(s), int32(tr), 1)
				}
			}
		}
		if grown == nil {
			next.Finalize()
		} else {
			next.FinalizeAppend(grown, nil)
		}
		grown, m = next, m+20
	}
	compact := coverOf(rows, grown.M)
	n, m := int64(compact.N()), int64(compact.M)
	if got, want := compact.MemoryBytes(), int64(compact.Pairs())*2*12+(n+1+m+1)*4+n*8; got != want {
		t.Fatalf("compact cover: MemoryBytes %d, want %d", got, want)
	}
	if grown.MemoryBytes() <= compact.MemoryBytes() {
		t.Fatalf("grown cover: MemoryBytes %d, not above its compact twin's %d", grown.MemoryBytes(), compact.MemoryBytes())
	}
}
