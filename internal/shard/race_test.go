package shard

import (
	"context"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// TestShardedEndToEndRace hammers one sharded core with concurrent queries,
// §6 updates and status and member-stats polls under the race detector.
// Afterwards the core must agree with a mirror that saw the same mutation
// sequence sequentially, and the counters must have moved.
func TestShardedEndToEndRace(t *testing.T) {
	inst, city := buildFixture(t, 503)
	mirrorInst, _ := buildFixture(t, 503)
	s := shardedEngine(t, inst, 4)
	mirror := shardedEngine(t, mirrorInst, 4)

	taus := []float64{0.4, 0.8, 1.2, 1.6}
	done := make(chan struct{})
	errCh := make(chan error, 64)
	var pollWG sync.WaitGroup
	var wg sync.WaitGroup

	// Query hammers: a fixed iteration budget each, so the churn below is
	// guaranteed to overlap live queries.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tau := taus[(r+i)%len(taus)]
				pref := tops.Binary(tau)
				if i%3 == 0 {
					pref = tops.Linear(tau)
				}
				if _, err := s.Query(context.Background(), core.QueryOptions{K: 3, Pref: pref}); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	// Status and stats poller.
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Status()
			_ = memberStats(s)
		}
	}()

	// One writer applies a fixed mutation sequence while the readers run.
	extra := extraTrajectories(t, city, 10, 131)
	applySequence := func(eng *Sharded, sites []roadnet.NodeID) error {
		ctx := context.Background()
		var first int64
		for i, tr := range extra {
			ack, err := eng.Update(ctx, wireTrajectory(tr))
			if err != nil {
				return err
			}
			if i == 0 {
				first = int64(*ack.TrajectoryID)
			}
		}
		for _, id := range []int64{1, 4, first} {
			if _, err := eng.Update(ctx, wal.Update{Op: wal.KindDeleteTrajectory.String(), ID: id}); err != nil {
				return err
			}
		}
		for _, v := range []roadnet.NodeID{sites[7], sites[19]} {
			if err := eng.DeleteSite(v); err != nil {
				return err
			}
		}
		for _, v := range []roadnet.NodeID{sites[7], sites[19]} {
			if err := eng.AddSite(v); err != nil {
				return err
			}
		}
		return nil
	}
	origSites := append([]roadnet.NodeID(nil), inst.Sites...)
	if err := applySequence(s, origSites); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(done)
	pollWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := applySequence(mirror, origSites); err != nil {
		t.Fatal(err)
	}
	for _, tau := range taus {
		q := core.QueryOptions{K: 5, Pref: tops.Binary(tau)}
		got, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mirror.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "post-churn", got, want)
	}

	st := memberStats(s)
	if st.Updates == 0 || st.CoverHits+st.CoverMisses == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
}
