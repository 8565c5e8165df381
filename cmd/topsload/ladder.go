package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/engine"
	"netclus/internal/mapmatch"
	"netclus/internal/roadnet"
	"netclus/internal/router"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// The ladder times the same query mix at each layer's public entry point,
// in this process, on one goroutine, on a pristine copy of the twin's
// index. Adjacent rungs differ by one layer, so the difference of their
// medians is that layer's tax. It runs after the children are gone, on an
// otherwise idle machine.

// minRungCalls is the least number of timed calls per mix entry, whatever
// the time budget.
const minRungCalls = 5

// rungs measures several functions in lock-step: every round calls each
// of them once per mix entry — one unrecorded round first — until budget
// per function has passed and every entry has minRungCalls recorded calls.
// Measuring adjacent rungs in the same rounds puts any drift in the
// machine's state on all of them alike, so the differences of their
// medians (the taxes) stay meaningful. Each fn returns the duration it
// measured; the result is, per function, each entry's median in
// nanoseconds.
func rungs(budget time.Duration, fns ...func(q int) (time.Duration, error)) ([][]float64, error) {
	per := make([][][]float64, len(fns))
	for f := range per {
		per[f] = make([][]float64, len(queryMix))
	}
	start := time.Now()
	for round := -1; round < minRungCalls || time.Since(start) < budget*time.Duration(len(fns)); round++ {
		for q := range queryMix {
			// The order rotates so that no function always runs right
			// after the same neighbour.
			for i := range fns {
				f := (i + round + 1) % len(fns)
				d, err := fns[f](q)
				if err != nil {
					return nil, err
				}
				if round >= 0 {
					per[f][q] = append(per[f][q], float64(d))
				}
			}
		}
	}
	med := make([][]float64, len(fns))
	for f := range per {
		med[f] = make([]float64, len(queryMix))
		for q := range per[f] {
			med[f][q] = median(per[f][q])
		}
	}
	return med, nil
}

// rung is rungs for a single function.
func rung(budget time.Duration, fn func(q int) (time.Duration, error)) ([]float64, error) {
	med, err := rungs(budget, fn)
	if err != nil {
		return nil, err
	}
	return med[0], nil
}

// whole makes a rung function that times all of fn.
func whole(fn func(q int) error) func(int) (time.Duration, error) {
	return func(q int) (time.Duration, error) {
		t0 := time.Now()
		err := fn(q)
		return time.Since(t0), err
	}
}

// primed is whole with one untimed call first. The interleaved hot rungs
// each follow a different function's call; without priming, whichever runs
// first after the mix entry changes pays for pulling that entry's cover
// into the CPU caches, and the rungs stop being comparable.
func primed(fn func(q int) error) func(int) (time.Duration, error) {
	timed := whole(fn)
	return func(q int) (time.Duration, error) {
		if err := fn(q); err != nil {
			return 0, err
		}
		return timed(q)
	}
}

// ladderResult holds, by metric name, each rung's per-entry medians in
// nanoseconds; a rung that does not depend on the query has one entry.
type ladderResult map[string][]float64

// ns is the rung's value: the mean over the mix of the per-entry medians.
func (l ladderResult) ns(name string) float64 { return mean(l[name]) }

// spans lays each mix entry's rungs out as sibling spans of one trace.
func (l ladderResult) spans(log *spanLog) {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for q := range queryMix {
		id := fmt.Sprintf("ladder-q%d", q)
		at := int64(0)
		for _, name := range names {
			if q >= len(l[name]) {
				continue
			}
			d := int64(l[name][q])
			log.add(span{Trace: id, Span: id + "/" + name, Name: "ladder." + name, StartNs: at, EndNs: at + d, Workload: "ladder"})
			at += d
		}
	}
}

func postRecorder(h http.Handler, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process /v1/query answered %d: %s", rec.Code, rec.Body)
	}
	return nil
}

func postLoopback(c *conn, url string, body []byte) error {
	status, raw, err := c.post(url+"/v1/query", body, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("loopback /v1/query answered %d: %s", status, raw)
	}
	return nil
}

// mutator is the write surface the cold-query rungs flip a site through.
type mutator interface {
	AddSite(roadnet.NodeID) error
	DeleteSite(roadnet.NodeID) error
}

// coldRung flips node and then times the first query after it, which
// finds the cover cache invalidated. It also returns the median duration
// of one of the flip's two mutations, each timed on its own.
func coldRung(budget time.Duration, m mutator, node roadnet.NodeID, query func(q int) error) (cold []float64, flipNs float64, err error) {
	var flips []float64
	cold, err = rung(budget, func(q int) (time.Duration, error) {
		t0 := time.Now()
		if err := m.DeleteSite(node); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := m.AddSite(node); err != nil {
			return 0, err
		}
		t2 := time.Now()
		flips = append(flips, float64(t1.Sub(t0)), float64(t2.Sub(t1)))
		err := query(q)
		return time.Since(t2), err
	})
	return cold, median(flips), err
}

// appendRung times Log.Append of a site record under one fsync policy.
func appendRung(cfg *config, policy wal.SyncPolicy) ([]float64, error) {
	dir := filepath.Join(cfg.workDir, "ladder-wal-"+string(policy))
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Policy: policy})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	body := wal.NodeBody(1)
	var ns []float64
	start := time.Now()
	for i := 0; i < minRungCalls || time.Since(start) < cfg.rungBudget; i++ {
		t0 := time.Now()
		if _, err := log.Append(wal.KindAddSite, body); err != nil {
			return nil, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return []float64{median(ns)}, nil
}

// runLadder measures every rung. snapshot is the twin index as built,
// before any replayed mutation; feed supplies traces for the matcher rung;
// flipNode is the site the mutation rungs flip.
func runLadder(cfg *config, snapshot []byte, feed gpsFeed, flipNode int64) (ladderResult, error) {
	ctx := context.Background()
	budget := cfg.rungBudget
	out := make(ladderResult)
	node := roadnet.NodeID(flipNode)
	var err error

	d, err := dataset.Load(dataset.Preset(cfg.preset), dataset.Config{Scale: cfg.scale, Seed: cfg.datasetSeed})
	if err != nil {
		return nil, err
	}
	inst := d.Instance

	// The sharded builds go first: they copy the instance's store, so they
	// must see it before the single-index rungs below mutate anything.
	sharded, err := shard.Build(inst, shard.Options{Shards: 2})
	if err != nil {
		return nil, fmt.Errorf("building in-process sharded engine: %w", err)
	}
	members := make([]*shard.Member, 2)
	for j := range members {
		if members[j], err = shard.BuildMember(inst, j, shard.Options{Shards: 2}); err != nil {
			return nil, fmt.Errorf("building in-process member %d: %w", j, err)
		}
	}

	idx, err := core.ReadIndex(bytes.NewReader(snapshot), inst)
	if err != nil {
		return nil, fmt.Errorf("reloading twin snapshot: %w", err)
	}

	// Each mix entry's memoized cover, for the rungs below the engine.
	type cover struct {
		p    int
		cs   *tops.CoverSets
		reps []core.ClusterID
	}
	covers := make([]cover, len(queryMix))
	bodies := make([][]byte, len(queryMix))
	for q, spec := range queryMix {
		p := idx.InstanceFor(spec.Tau)
		cs, reps, _ := idx.CoverFor(p, spec.preference())
		covers[q] = cover{p, cs, reps}
		bodies[q] = spec.body()
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		return nil, err
	}
	engQuery := func(q int) error {
		res, err := eng.Query(ctx, queryMix[q].options())
		if err == nil {
			res.Release()
		}
		return err
	}
	shQuery := func(q int) error {
		res, err := sharded.Query(ctx, queryMix[q].options())
		if err == nil {
			res.Release()
		}
		return err
	}
	unbatched, err := server.New(eng, server.Options{BatchWindow: -1})
	if err != nil {
		return nil, err
	}
	c := newConn()
	defer c.close()
	ts := httptest.NewServer(unbatched)

	// The cached query, one layer at a time: the greedy alone on the
	// memoized cover (tops); plus answer assembly (core); plus the
	// reader/writer protocol and cover lookup (engine); plus the JSON codec,
	// with the handler called directly (server); plus a loopback socket;
	// and, beside the engine, the in-process scatter-gather over two shards.
	var scratch tops.GreedyScratch
	hot, err := rungs(budget,
		primed(func(q int) error {
			_, err := tops.IncGreedyScratch(covers[q].cs, tops.GreedyOptions{K: queryMix[q].K}, &scratch)
			return err
		}),
		primed(func(q int) error {
			c := covers[q]
			res, err := idx.QueryOnCoverPooledCtx(ctx, c.p, c.cs, c.reps, queryMix[q].options())
			if err == nil {
				res.Release()
			}
			return err
		}),
		primed(engQuery),
		primed(func(q int) error { return postRecorder(unbatched, bodies[q]) }),
		primed(func(q int) error { return postLoopback(c, ts.URL, bodies[q]) }),
		primed(shQuery),
	)
	ts.Close()
	if err != nil {
		return nil, err
	}
	for i, name := range []string{"tops.greedy_us", "core.query_on_cover_us", "engine.query_hot_us", "server.handler_hot_us", "server.loopback_hot_us", "shard.query_hot_us"} {
		out[name] = hot[i]
	}
	if out["core.cover_fill_ms"], err = rung(budget, whole(func(q int) error {
		_, _, err := idx.RepCoverCtx(ctx, covers[q].p, queryMix[q].preference())
		return err
	})); err != nil {
		return nil, err
	}

	// The default admission window with a single client: the wait for a
	// batch that never fills.
	batched, err := server.New(eng, server.Options{})
	if err != nil {
		return nil, err
	}
	ts = httptest.NewServer(batched)
	out["server.loopback_batched_ms"], err = rung(budget, whole(func(q int) error { return postLoopback(c, ts.URL, bodies[q]) }))
	ts.Close()
	batched.Close()
	if err != nil {
		return nil, err
	}

	// engine write path and the query that follows it.
	var flipNs float64
	if out["engine.query_cold_ms"], flipNs, err = coldRung(budget, eng, node, engQuery); err != nil {
		return nil, err
	}
	out["engine.site_flip_us"] = []float64{flipNs}

	// wal: the append under the default group-commit policy and under
	// fsync-per-record.
	if out["wal.append_interval_us"], err = appendRung(cfg, wal.SyncEveryInterval); err != nil {
		return nil, err
	}
	if out["wal.append_always_us"], err = appendRung(cfg, wal.SyncAlways); err != nil {
		return nil, err
	}

	// shard: the first scatter-gather query after a flip.
	if out["shard.query_cold_ms"], _, err = coldRung(budget, sharded, node, shQuery); err != nil {
		return nil, err
	}

	// router: the round protocol over two loopback members, entered at the
	// router's handler — every cross-process hop except the client's own.
	var urls [][]string
	for _, m := range members {
		srv, err := server.New(m, server.Options{BatchWindow: -1, Member: m})
		if err != nil {
			return nil, err
		}
		mts := httptest.NewServer(srv)
		defer mts.Close()
		urls = append(urls, []string{mts.URL})
	}
	rt, err := router.New(router.Options{Shards: urls})
	if err != nil {
		return nil, fmt.Errorf("in-process router: %w", err)
	}
	if out["router.query_hot_ms"], err = rung(budget, whole(func(q int) error { return postRecorder(rt, bodies[q]) })); err != nil {
		return nil, err
	}

	// mapmatch: one trace through the HMM matcher.
	matcher := mapmatch.NewMatcher(inst.G, mapmatch.Config{})
	var matchNs []float64
	start := time.Now()
	for i := 0; i < minRungCalls || time.Since(start) < budget; i++ {
		t0 := time.Now()
		if _, err := matcher.Match(feed.traces[i%len(feed.traces)]); err != nil {
			return nil, fmt.Errorf("matching feed trace %d: %w", i%len(feed.traces), err)
		}
		matchNs = append(matchNs, float64(time.Since(t0)))
	}
	out["mapmatch.match_ms"] = []float64{median(matchNs)}
	return out, nil
}
