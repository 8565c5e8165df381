// The serving shell of Engine: the traffic counters, the one query path
// (Query, QueryBatch), the one write path (Apply and the typed mutations
// that build its value), and the log surface (LSN, epochs, AttachWAL,
// ApplyRecord). engine.go holds what the shell wraps.

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// Stats is a snapshot of the engine's traffic counters. The json tags are
// the /statsz wire contract of internal/server.
type Stats struct {
	// Queries counts single Query calls; BatchQueries counts queries served
	// through QueryBatch (Batches counts the batch calls themselves).
	Queries      uint64 `json:"queries"`
	BatchQueries uint64 `json:"batch_queries"`
	Batches      uint64 `json:"batches"`
	// Updates counts mutation calls (single or batch).
	Updates uint64 `json:"updates"`
	// Per-kind mutation counters: items, not calls — a 10-site AddSites
	// advances SiteAdds by 10 and Updates by 1.
	SiteAdds    uint64 `json:"site_add"`
	SiteDeletes uint64 `json:"site_delete"`
	TrajAdds    uint64 `json:"traj_add"`
	TrajDeletes uint64 `json:"traj_delete"`
	// LSN is the last write-ahead-log sequence number applied (logged on a
	// primary, replayed on a follower or during recovery); 0 when the
	// engine is not WAL-served.
	LSN uint64 `json:"lsn"`
	// Epoch is the replication fencing token of the primary term this
	// engine last observed; 0 when no term was ever opened.
	Epoch uint64 `json:"epoch"`
	// Errors counts failed queries (single or batch items), including the
	// Canceled subset below.
	Errors uint64 `json:"errors"`
	// Canceled counts queries aborted by context cancellation or a lapsed
	// per-request deadline.
	Canceled uint64 `json:"canceled"`
	// The core cover-cache counters (core.CoverCacheStats): CoverHits
	// counts lookups that swept no representative row — CoverRevalidated of
	// them by re-checking a cover against moved representatives —
	// CoverMisses those that swept at least one, CoverRowsSwept the rows;
	// CoverEntries is the number of covers currently memoized.
	CoverHits        uint64 `json:"cover_hits"`
	CoverMisses      uint64 `json:"cover_misses"`
	CoverRevalidated uint64 `json:"cover_revalidated"`
	CoverRowsSwept   uint64 `json:"cover_rows_swept"`
	CoverEntries     int    `json:"cover_entries"`
	// CoverTime and GreedyTime accumulate the wall time of the two query
	// phases (cover fetch-or-build, greedy selection) across all queries,
	// in nanoseconds on the wire.
	CoverTime  time.Duration `json:"cover_time_ns"`
	GreedyTime time.Duration `json:"greedy_time_ns"`
}

// Stats returns a consistent-enough snapshot of the counters (individual
// fields are atomically read; the set is not fenced against in-flight
// queries, which is fine for monitoring).
func (e *Engine) Stats() Stats {
	cc := e.idx.CoverCacheStats()
	return Stats{
		Queries:      e.queries.Load(),
		BatchQueries: e.batchQueries.Load(),
		Batches:      e.batches.Load(),
		Updates:      e.updates.updates.Load(),
		SiteAdds:     e.updates.siteAdds.Load(),
		SiteDeletes:  e.updates.siteDeletes.Load(),
		TrajAdds:     e.updates.trajAdds.Load(),
		TrajDeletes:  e.updates.trajDeletes.Load(),
		LSN:          e.sink.LSN(),
		Epoch:        e.sink.Epoch(),
		Errors:       e.errors.Load(),
		Canceled:     e.canceled.Load(),
		CoverTime:    time.Duration(e.coverNanos.Load()),
		GreedyTime:   time.Duration(e.greedyNanos.Load()),

		CoverHits:        cc.Hits,
		CoverMisses:      cc.Misses,
		CoverRevalidated: cc.Revalidated,
		CoverRowsSwept:   cc.RowsSwept,
		CoverEntries:     cc.Entries,
	}
}

// updateCounters tallies applied §6 mutations for Stats: calls, and items
// per kind.
type updateCounters struct {
	updates, siteAdds, siteDeletes, trajAdds, trajDeletes atomic.Uint64
}

// count tallies one applied mutation.
func (c *updateCounters) count(m wal.Mutation) {
	c.updates.Add(1)
	switch m.Kind {
	case wal.KindAddSite:
		c.siteAdds.Add(1)
	case wal.KindAddSites:
		c.siteAdds.Add(uint64(len(m.Nodes)))
	case wal.KindDeleteSite:
		c.siteDeletes.Add(1)
	case wal.KindAddTrajectory:
		c.trajAdds.Add(1)
	case wal.KindAddTrajectories:
		c.trajAdds.Add(uint64(len(m.Trajs)))
	case wal.KindDeleteTrajectory:
		c.trajDeletes.Add(1)
	case wal.KindDeleteTrajectories:
		c.trajDeletes.Add(uint64(len(m.IDs)))
	}
}

// accountErr classifies a query failure into the Errors / Canceled
// counters and passes it through.
func (e *Engine) accountErr(err error) error {
	if err != nil {
		e.errors.Add(1)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.canceled.Add(1)
		}
	}
	return err
}

// validate rejects a query no engine can answer: a malformed preference or
// a non-positive k.
func validate(q core.QueryOptions) error {
	if err := q.Pref.Validate(); err != nil {
		return err
	}
	if q.K <= 0 {
		return fmt.Errorf("engine: k = %d must be positive", q.K)
	}
	return nil
}

// fetchCover is fetch of the full cover, accounted to the cover phase.
func (e *Engine) fetchCover(ctx context.Context, p int, pref tops.Preference) (*tops.CoverSets, []core.ClusterID, int, error) {
	t0 := time.Now()
	cs, reps, swept, err := e.fetch(ctx, p, pref, nil)
	e.coverNanos.Add(time.Since(t0).Nanoseconds())
	return cs, reps, swept, err
}

// answer is greedy accounted to the greedy phase. On success it
// stamps the result with the cover's source and records the query's latency
// from since, split on that source: a memoized cover is the steady-state cached
// path, one that swept rows (a fresh fill or a patch) the cold one. The
// stamp and the record are allocation-free — the zero-alloc cached-query
// gate runs with this instrumentation live.
func (e *Engine) answer(ctx context.Context, p int, cs *tops.CoverSets, reps []core.ClusterID, swept int, opts core.QueryOptions, since time.Time) (*core.QueryResult, error) {
	t0 := time.Now()
	res, err := e.greedy(ctx, p, cs, reps, opts)
	e.greedyNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, err
	}
	res.CoverHit, res.CoverRowsSwept = swept == 0, swept
	if res.CoverHit {
		obs.QueryCached.RecordSince(since)
	} else {
		obs.QueryUncached.RecordSince(since)
	}
	return res, nil
}

// Query answers one TOPS query under a read lock, so any number of Query
// and QueryBatch calls proceed concurrently with each other and the cover
// cache is shared between them. The context carries the per-request
// deadline: cancellation aborts the query at the next checkpoint (before
// the cover sweep, between representatives inside it, before the greedy)
// with the context's error.
func (e *Engine) Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	res, err := e.serve(ctx, opts)
	if err == nil {
		e.queries.Add(1)
	}
	return res, e.accountErr(err)
}

func (e *Engine) serve(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	tServe := time.Now()
	if err := validate(opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := e.idx.InstanceFor(opts.Pref.Tau)
	cs, reps, swept, err := e.fetchCover(ctx, p, opts.Pref)
	if err != nil {
		return nil, err
	}
	return e.answer(ctx, p, cs, reps, swept, opts, tServe)
}

// BatchItem is one QueryBatch outcome, index-aligned with the input.
type BatchItem struct {
	Result *core.QueryResult
	Err    error
}

// QueryBatch answers many queries under one read lock, grouping them by
// (ladder instance, preference fingerprint) so that each group's covering
// structure is fetched exactly once and then serves every (k, ψ-parameter)
// combination in the group; the greedy runs fan out across GOMAXPROCS. The
// interactive pattern the paper motivates — one analyst re-running a query
// while varying k and τ — maps to groups of size > 1 here; POST
// /v1/query/batch is this call over the network.
//
// The context applies to the batch as a whole: cancellation fails the
// not-yet-answered items with the context's error (already-computed items
// keep their results).
func (e *Engine) QueryBatch(ctx context.Context, qs []core.QueryOptions) []BatchItem {
	out := make([]BatchItem, len(qs))
	if len(qs) == 0 {
		return out
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.batches.Add(1)

	type groupKey struct {
		p  int
		fp uint64
	}
	groups := make(map[groupKey][]int)
	for i, q := range qs {
		if err := validate(q); err != nil {
			out[i].Err = e.accountErr(err)
			continue
		}
		key := groupKey{p: e.idx.InstanceFor(q.Pref.Tau), fp: core.PrefFingerprint(q.Pref)}
		groups[key] = append(groups[key], i)
	}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for key, members := range groups {
		cs, reps, swept, err := e.fetchCover(ctx, key.p, qs[members[0]].Pref)
		if err != nil {
			for _, i := range members {
				out[i].Err = e.accountErr(err)
			}
			continue
		}
		for _, i := range members {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// Per-item latency: batch items ride a shared cover, so the
				// greedy phase is the whole per-query cost here.
				out[i].Result, out[i].Err = e.answer(ctx, key.p, cs, reps, swept, qs[i], time.Now())
				if out[i].Err == nil {
					e.batchQueries.Add(1)
				} else {
					e.accountErr(out[i].Err)
				}
			}(i)
		}
	}
	wg.Wait()
	return out
}

// Mutations. A §6 update is a wal.Mutation value and there is one write
// path for it: Apply takes the write lock — so in-flight queries drain
// first and the core's cache invalidation happens before any new reader
// can observe the changed state — and hands transition to the sink's live
// discipline (wal.Sink.Apply: apply, then log, then acknowledge);
// ApplyRecord hands the same function to the replay discipline. The typed
// methods below only build the value.

// Apply is the live write path: it applies m and, with a WAL attached, logs
// it before returning. The engine keeps nothing the caller can still reach
// — trajectories are stored as decoded copies of the value's data, the same
// objects a replay of the logged record would build. A committed trajectory
// mutation then refreshes the covers read since their last refresh
// (refreshCovers) before Apply returns.
func (e *Engine) Apply(m wal.Mutation) (wal.Applied, error) {
	a, err := e.apply(m)
	if err == nil {
		e.refreshCovers(m.Kind)
	}
	return a, err
}

func (e *Engine) apply(m wal.Mutation) (wal.Applied, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.admit != nil {
		if err := e.admit(m); err != nil {
			return wal.Applied{}, err
		}
	}
	return e.sink.Apply(m, e.transition)
}

// refreshCovers follows a committed mutation of kind k. A trajectory kind
// grows or shrinks every cached cover, and the first lookup of each would
// extend it on the request path. So, under the read lock (queries keep
// serving), the covers that lookups read since the last refresh are brought
// current now: core.RefreshReadCovers, the routine and singleflight a
// lookup uses. Site kinds refresh nothing: a flip moves few rows, and its
// lookups revalidate them cheaply.
func (e *Engine) refreshCovers(k wal.Kind) {
	switch k {
	case wal.KindAddTrajectory, wal.KindAddTrajectories, wal.KindDeleteTrajectory, wal.KindDeleteTrajectories:
	default:
		return
	}
	if e.opts.DisableCoverCache {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.idx.RefreshReadCovers()
}

// SetAdmission installs a check every live mutation must pass before it is
// applied; a non-nil error refuses the mutation untouched. It sits inside
// Apply, so no route to the engine — typed method, Apply, HTTP — can skip
// it. shard.Member refuses sites its partition does not own this way. Call
// before the engine serves.
func (e *Engine) SetAdmission(admit func(wal.Mutation) error) { e.admit = admit }

// transition is applyMutation plus the tally, so live application
// and replay of the same history cannot report different numbers. Caller
// holds the write lock.
func (e *Engine) transition(m wal.Mutation) ([]trajectory.ID, error) {
	ids, err := e.applyMutation(m)
	if err != nil {
		return nil, err
	}
	e.updates.count(m)
	return ids, nil
}

// AddSite registers a new candidate site.
func (e *Engine) AddSite(v roadnet.NodeID) error {
	_, err := e.Apply(wal.Mutation{Kind: wal.KindAddSite, Node: v})
	return err
}

// DeleteSite removes a candidate site.
func (e *Engine) DeleteSite(v roadnet.NodeID) error {
	_, err := e.Apply(wal.Mutation{Kind: wal.KindDeleteSite, Node: v})
	return err
}

// AddSites registers a batch of candidate sites atomically.
func (e *Engine) AddSites(nodes []roadnet.NodeID) error {
	_, err := e.Apply(wal.Mutation{Kind: wal.KindAddSites, Nodes: nodes})
	return err
}

// AddTrajectory ingests one trajectory.
func (e *Engine) AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error) {
	a, err := e.Apply(wal.Mutation{Kind: wal.KindAddTrajectory, Traj: wal.FromTrajectory(tr)})
	if err != nil {
		return 0, err
	}
	return a.IDs[0], nil
}

// DeleteTrajectory removes one trajectory.
func (e *Engine) DeleteTrajectory(tid trajectory.ID) error {
	_, err := e.Apply(wal.Mutation{Kind: wal.KindDeleteTrajectory, ID: tid})
	return err
}

// AddTrajectories ingests a batch of trajectories atomically.
func (e *Engine) AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	a, err := e.Apply(wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: wal.FromTrajectories(trs)})
	return a.IDs, err
}

// DeleteTrajectories removes a batch of trajectories atomically.
func (e *Engine) DeleteTrajectories(ids []trajectory.ID) error {
	_, err := e.Apply(wal.Mutation{Kind: wal.KindDeleteTrajectories, IDs: ids})
	return err
}

// Durability and replication surface: the LSN the engine has reached and a
// replay entry point that applies logged records without re-logging them
// (crash recovery and follower tailing). The sink's LSN is the only one
// kept: Engine.Snapshot stamps it into what it writes.

// LSN reports the last applied write-ahead-log sequence number.
func (e *Engine) LSN() uint64 { return e.sink.LSN() }

// Epoch reports the replication fencing token this engine last observed
// (0 until a term is opened or replayed).
func (e *Engine) Epoch() uint64 { return e.sink.Epoch() }

// RestoreEpoch stamps the epoch recovered from a checkpoint container.
// Load-time only, before any mutations or replay.
func (e *Engine) RestoreEpoch(epoch uint64) { e.sink.RestoreEpoch(epoch) }

// BeginEpoch opens a new primary term: it logs a KindEpoch record (when a
// WAL is attached) and advances the fencing token, which must be strictly
// newer than the current one. Promotion calls this with Epoch()+1.
func (e *Engine) BeginEpoch(epoch uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.sink.BeginEpoch(epoch)
	return err
}

// AttachWAL connects the engine to its log: every later mutation appends a
// record before it is acknowledged. The log must be positioned exactly at
// the engine's LSN — recover first (wal.Replay), then attach. An empty log
// is based at the engine's LSN, covering both a fresh deployment and a
// checkpoint restored into a compacted-away log directory.
func (e *Engine) AttachWAL(l *wal.Log) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sink.Attach(l)
}

// ApplyRecord is the replay path: it applies one logged mutation through
// transition — the function Apply logged it from — without re-logging it.
// Crash recovery drives the checkpoint's tail through it, and a follower
// drives the primary's streamed records through it. Records must arrive in
// LSN order; a WAL-attached engine refuses (its records originate locally).
func (e *Engine) ApplyRecord(rec wal.Record) error {
	m, err := rec.Mutation()
	if err != nil {
		return err
	}
	e.mu.Lock()
	err = e.sink.Replay(rec.LSN, m, e.transition)
	e.mu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	e.refreshCovers(m.Kind)
	return nil
}
