package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"netclus/internal/core"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// TestWindowRefreshesOnlyReadCovers pins what a committed window refreshes:
// the covers read since the last refresh, each once, and no other. With 40
// cached τ and one of them read since the last window, the next window
// patches exactly that one; the next lookup of it is a plain hit, and a τ
// left unread is patched by its own next lookup instead.
func TestWindowRefreshesOnlyReadCovers(t *testing.T) {
	idx, _, city := buildFixture(t, 211)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := func(tau float64) *core.QueryResult {
		t.Helper()
		res, err := eng.Query(ctx, core.QueryOptions{K: 3, Pref: tops.Binary(tau)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const cached = 40
	taus := make([]float64, cached)
	for i := range taus {
		taus[i] = 0.4 + 0.15*float64(i)
		query(taus[i])
	}
	extra := extraTrajectories(t, city, 16, 213)
	window := func(trs []*trajectory.Trajectory) (revalidated uint64) {
		t.Helper()
		before := eng.Stats()
		if _, err := eng.AddTrajectories(trs); err != nil {
			t.Fatal(err)
		}
		after := eng.Stats()
		if after.CoverHits != before.CoverHits || after.CoverMisses != before.CoverMisses || after.CoverRowsSwept != before.CoverRowsSwept {
			t.Fatalf("window: hits %d -> %d, misses %d -> %d, rows swept %d -> %d; a commit runs no lookup and a window sweeps no row",
				before.CoverHits, after.CoverHits, before.CoverMisses, after.CoverMisses, before.CoverRowsSwept, after.CoverRowsSwept)
		}
		return after.CoverRevalidated - before.CoverRevalidated
	}
	if got := window(extra[:8]); got != cached {
		t.Fatalf("first window patched %d covers, want all %d (each was read)", got, cached)
	}
	if st := eng.Stats(); st.CoverEntries != cached {
		t.Fatalf("%d covers cached, want %d", st.CoverEntries, cached)
	}

	read := taus[17]
	if res := query(read); !res.CoverHit {
		t.Fatal("lookup right after the window that patched it is not a hit")
	}
	if got := window(extra[8:]); got != 1 {
		t.Fatalf("second window patched %d covers, want the 1 read since the first", got)
	}
	before := eng.Stats()
	if res := query(read); !res.CoverHit || eng.Stats().CoverRevalidated != before.CoverRevalidated {
		t.Fatal("the read τ's next lookup is not a plain hit")
	}
	before = eng.Stats()
	if res := query(taus[3]); !res.CoverHit || eng.Stats().CoverRevalidated != before.CoverRevalidated+1 {
		t.Fatal("an unread τ's next lookup did not patch its cover once, sweeping no row")
	}
	want, err := idx.QueryCtx(ctx, core.QueryOptions{K: 3, Pref: tops.Binary(read)})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, query(read), want, "refreshed cover")
}

// TestRefreshUnderConcurrentWindowsAndDeletes races queries against
// trajectory windows and deletes, whose commits refresh the covers the
// queries read. Run it under -race. Every answer must be bit-equal to what
// a never-cached twin answers at one of the states the query could have
// seen: the writer bumps seq to odd before each mutation and to even after
// it returns, so a query that read seq c1 before and c2 after saw the state
// after k mutations for some k in [c1/2, (c2+1)/2].
func TestRefreshUnderConcurrentWindowsAndDeletes(t *testing.T) {
	idx, _, city := buildFixture(t, 223)
	twinIdx, _, _ := buildFixture(t, 223)
	eng, err := New(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(twinIdx, Options{DisableCoverCache: true})
	if err != nil {
		t.Fatal(err)
	}
	extra := extraTrajectories(t, city, 48, 227)
	var script []wal.Mutation
	for w := 0; w < 6; w++ {
		script = append(script, wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: wal.FromTrajectories(extra[8*w : 8*w+8])})
		// Two base ids and one the window just added (60 base trajectories,
		// 8 more per window).
		script = append(script, wal.Mutation{Kind: wal.KindDeleteTrajectories, IDs: []trajectory.ID{
			trajectory.ID(5 * w), trajectory.ID(5*w + 31), trajectory.ID(60 + 8*w + w),
		}})
	}
	prefs := []tops.Preference{tops.Binary(0.8), tops.Linear(1.6), tops.Binary(3.2), tops.ConvexQuadratic(2.4)}

	type served struct {
		q      core.QueryOptions
		c1, c2 int64
		res    *core.QueryResult
	}
	var seq, answered atomic.Int64
	done := make(chan struct{})
	out := make([][]served, 3)
	errs := make(chan error, len(out))
	var wg sync.WaitGroup
	for r := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := core.QueryOptions{K: 1 + (r+i)%5, Pref: prefs[(r+i)%len(prefs)]}
				c1 := seq.Load()
				res, err := eng.Query(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				out[r] = append(out[r], served{q, c1, seq.Load(), res})
				answered.Add(1)
			}
		}()
	}
	for _, m := range script {
		// Let every reader answer a few queries at each state, and some
		// race the commit and its refresh.
		for n := answered.Load(); answered.Load() < n+8; {
			runtime.Gosched()
		}
		seq.Add(1)
		if _, err := eng.Apply(m); err != nil {
			t.Fatal(err)
		}
		seq.Add(1)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// want[k] memoizes the twin's answers at the state after k mutations.
	want := make([]map[string]*core.QueryResult, len(script)+1)
	answer := func(k int, q core.QueryOptions) *core.QueryResult {
		key := fmt.Sprintf("%s/%v/%d", q.Pref.Name, q.Pref.Tau, q.K)
		if want[k] == nil {
			want[k] = make(map[string]*core.QueryResult)
		}
		if res, ok := want[k][key]; ok {
			return res
		}
		res, err := twin.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[k][key] = res
		return res
	}
	var all []served
	for _, rs := range out {
		all = append(all, rs...)
	}
	checked := make([]bool, len(all))
	for k := 0; k <= len(script); k++ {
		for i, s := range all {
			if !checked[i] && int(s.c1/2) <= k && k <= int((s.c2+1)/2) && sameAnswerBits(s.res, answer(k, s.q)) {
				checked[i] = true
			}
		}
		if k < len(script) {
			if _, err := twin.Apply(script[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range all {
		if !checked[i] {
			t.Fatalf("k=%d ψ=%s (seq %d..%d): answer %v / %v matches the twin at no state the query could have seen",
				s.q.K, s.q.Pref.Name, s.c1, s.c2, s.res.Sites, s.res.EstimatedUtility)
		}
	}
	if st := eng.Stats(); st.CoverRevalidated == 0 {
		t.Fatal("no cover was ever patched: the race did not exercise the refresh")
	}
	t.Logf("%d answers checked against %d states", len(all), len(script)+1)
}

// sameAnswerBits reports whether two answers select the same sites in the
// same order with bit-identical utility and the same coverage.
func sameAnswerBits(a, b *core.QueryResult) bool {
	return slices.Equal(a.Sites, b.Sites) && math.Float64bits(a.EstimatedUtility) == math.Float64bits(b.EstimatedUtility) &&
		a.EstimatedCovered == b.EstimatedCovered
}
