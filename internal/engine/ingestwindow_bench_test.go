package engine

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// BenchmarkQueryAfterIngestWindow prices what a 64-trajectory ingest
// window costs the next query, on the repository benchmark's own instance
// (`bangalore` at scale 0.01, dataset seed 7) and its ingest_stream query
// mix. In stale, each iteration adds one window (outside the timer) and
// times the first query after it. The window's commit has already extended
// every cover of the mix read since the last window (core.extendCover's
// sweep of the TL tails, then tops.CoverSets.FinalizeAppend, which writes
// the window's entries into the cover's rows), so that query is a hit; the
// rest of the mix is then read untimed, as the workload's probe reads it
// between windows. window-p50-us is the median AddTrajectories call, where
// that extension is now paid. hit times the same queries with no window
// between them. The windows are the dataset's own trajectories again,
// 1 024 of them over its 500, as the workload's 1 000-trace feed re-matches
// them; then the index is reloaded from a snapshot. p50-us is the median of
// the timed queries; B/op and allocs/op count the timed queries alone.
func BenchmarkQueryAfterIngestWindow(b *testing.B) {
	d, err := dataset.Load(dataset.Bangalore, dataset.Config{Scale: 0.01, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	base := d.Instance
	idx, err := core.Build(base, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := idx.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	store, sites := base.Trajs.Clone(), slices.Clone(base.Sites)
	const window, windows = 64, 16
	feed := make([]*trajectory.Trajectory, window*windows)
	for i := range feed {
		feed[i] = store.Get(trajectory.ID(i % store.Len()))
	}
	mix := []core.QueryOptions{
		{K: 5, Pref: tops.Binary(0.4)}, {K: 5, Pref: tops.Binary(0.8)}, {K: 5, Pref: tops.Binary(1.6)},
		{K: 5, Pref: tops.Binary(2.4)}, {K: 10, Pref: tops.Binary(0.8)}, {K: 5, Pref: tops.Linear(0.8)},
	}
	run := func(b *testing.B, stale bool) {
		var eng *Engine
		query := func(q core.QueryOptions) {
			res, err := eng.Query(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
		lat := make([]time.Duration, 0, b.N)
		var windowLat []time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := i % windows
			if i == 0 || (stale && w == 0) {
				inst, err := tops.NewInstance(base.G, store.Clone(), slices.Clone(sites))
				if err != nil {
					b.Fatal(err)
				}
				loaded, err := core.ReadIndex(bytes.NewReader(snap.Bytes()), inst)
				if err != nil {
					b.Fatal(err)
				}
				if eng, err = New(loaded, Options{}); err != nil {
					b.Fatal(err)
				}
				for _, q := range mix {
					query(q)
				}
			}
			if stale {
				t0 := time.Now()
				if _, err := eng.AddTrajectories(feed[w*window : (w+1)*window]); err != nil {
					b.Fatal(err)
				}
				windowLat = append(windowLat, time.Since(t0))
			}
			q := i % len(mix)
			b.StartTimer()
			t0 := time.Now()
			query(mix[q])
			lat = append(lat, time.Since(t0))
			b.StopTimer()
			if stale {
				for j, other := range mix {
					if j != q {
						query(other)
					}
				}
			}
		}
		slices.Sort(lat)
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
		if stale {
			slices.Sort(windowLat)
			b.ReportMetric(float64(windowLat[len(windowLat)/2].Nanoseconds())/1e3, "window-p50-us")
		}
		st := eng.Stats()
		if misses := st.CoverMisses; misses > uint64(len(mix)) {
			b.Fatalf("%d cover misses: windows must extend covers, not refill them", misses)
		}
	}
	b.Run("stale", func(b *testing.B) { run(b, true) })
	b.Run("hit", func(b *testing.B) { run(b, false) })
}
