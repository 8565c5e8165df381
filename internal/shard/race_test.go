package shard

import (
	"context"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// TestShardedEndToEndRace hammers one sharded engine with concurrent
// queries, batches, §6 updates and stats polls under the race detector. Afterwards the engine
// must agree with a mirror that saw the same mutation sequence
// sequentially, and the counters must be coherent.
func TestShardedEndToEndRace(t *testing.T) {
	inst, city := buildFixture(t, 503)
	mirrorInst, _ := buildFixture(t, 503)
	s := shardedEngine(t, inst, 4, HashPartitioner)
	mirror := shardedEngine(t, mirrorInst, 4, HashPartitioner)

	taus := []float64{0.4, 0.8, 1.2, 1.6}
	done := make(chan struct{})
	errCh := make(chan error, 64)
	var pollWG sync.WaitGroup
	var wg sync.WaitGroup

	// Query hammers: a fixed iteration budget each, so the churn below is
	// guaranteed to overlap live queries and batches.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tau := taus[(r+i)%len(taus)]
				if i%3 == 0 {
					items := s.QueryBatch(context.Background(), []core.QueryOptions{
						{K: 2, Pref: tops.Binary(tau)},
						{K: 4, Pref: tops.Linear(tau)},
					})
					for _, it := range items {
						if it.Err != nil {
							errCh <- it.Err
							return
						}
					}
				} else if _, err := s.Query(context.Background(), core.QueryOptions{K: 3, Pref: tops.Binary(tau)}); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	// Stats poller.
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Stats()
		}
	}()

	// One writer applies a fixed mutation sequence while the readers run.
	extra := extraTrajectories(t, city, 10, 131)
	applySequence := func(eng *Sharded, sites []roadnet.NodeID) error {
		ids, err := eng.AddTrajectories(extra)
		if err != nil {
			return err
		}
		if err := eng.DeleteTrajectories([]trajectory.ID{1, 4, ids[0]}); err != nil {
			return err
		}
		if err := eng.DeleteSite(sites[7]); err != nil {
			return err
		}
		if err := eng.DeleteSite(sites[19]); err != nil {
			return err
		}
		return eng.AddSites([]roadnet.NodeID{sites[7], sites[19]})
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

	st := s.Stats()
	if st.Queries == 0 || st.Batches == 0 || st.Updates == 0 || st.CoverHits+st.CoverMisses == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
}
