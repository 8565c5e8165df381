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

// Backend is the half of an engine that differs between the single-index
// Engine and shard.Sharded: which ladder instance serves τ, how the cover
// for (instance, ψ) is obtained, how a query is answered on it, and what a
// §6 mutation does to the data. C is the engine's cover handle, opaque to
// the shell. Front calls every method with its lock held — read for the
// query half, write for ApplyMutation — so implementations take none of
// their own.
type Backend[C any] interface {
	// InstanceFor returns the ladder position serving threshold τ.
	InstanceFor(tau float64) int
	// FetchCover returns the covering structure of instance p under pref and
	// the number of representative rows swept to produce it (0: memoized).
	FetchCover(ctx context.Context, p int, pref tops.Preference) (C, int, error)
	// Answer runs the greedy phase of one query on a fetched cover.
	Answer(ctx context.Context, p int, c C, opts core.QueryOptions) (*core.QueryResult, error)
	// ApplyMutation is the engine's one transition function over mutations,
	// reached by Apply (live) and ApplyRecord (replay) alike; it returns the
	// ids an add kind assigned.
	ApplyMutation(m wal.Mutation) ([]trajectory.ID, error)
	// CoverCacheStats reports the cover-cache counters behind FetchCover.
	CoverCacheStats() core.CoverCacheStats
}

// Front is the serving shell Engine and shard.Sharded embed: the
// reader/writer lock, the WAL sink, the admission hook and the traffic
// counters, and — written once for both — the query path, QueryBatch, the
// write path and the log surface, over a Backend. Queries share the read
// lock; mutations take the write lock, so in-flight queries drain first.
type Front[C any] struct {
	mu sync.RWMutex
	b  Backend[C]

	// sink owns the attached log, the engine LSN, and the broken latch (see
	// wal.Sink); every successful mutation commits a typed record through it
	// before the caller is acknowledged. After an append failure the sink
	// refuses further mutations until the process restarts and recovers
	// (queries keep serving).
	sink wal.Sink

	// admit, when set, vets every live mutation before it is applied (see
	// SetAdmission). Replay trusts the log and skips it.
	admit func(wal.Mutation) error

	queries      atomic.Uint64
	batchQueries atomic.Uint64
	batches      atomic.Uint64
	updates      updateCounters
	errors       atomic.Uint64
	canceled     atomic.Uint64
	coverNanos   atomic.Int64
	greedyNanos  atomic.Int64
}

// Init binds the shell to its backend, at the LSN the backend's loaded state
// reflects. Call once, before the engine serves.
func (f *Front[C]) Init(b Backend[C], lsn uint64) {
	f.b = b
	f.sink.SetLSN(lsn)
}

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
	// The core cover-cache counters (core.CoverCacheStats; summed over the
	// shards of a sharded engine): CoverHits counts lookups that swept no
	// representative row — CoverRevalidated of them by re-checking a cover
	// against moved representatives — CoverMisses those that swept at least
	// one, CoverRowsSwept the rows; CoverEntries is the number of covers
	// currently memoized.
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
func (f *Front[C]) Stats() Stats {
	cc := f.b.CoverCacheStats()
	return Stats{
		Queries:      f.queries.Load(),
		BatchQueries: f.batchQueries.Load(),
		Batches:      f.batches.Load(),
		Updates:      f.updates.updates.Load(),
		SiteAdds:     f.updates.siteAdds.Load(),
		SiteDeletes:  f.updates.siteDeletes.Load(),
		TrajAdds:     f.updates.trajAdds.Load(),
		TrajDeletes:  f.updates.trajDeletes.Load(),
		LSN:          f.sink.LSN(),
		Epoch:        f.sink.Epoch(),
		Errors:       f.errors.Load(),
		Canceled:     f.canceled.Load(),
		CoverTime:    time.Duration(f.coverNanos.Load()),
		GreedyTime:   time.Duration(f.greedyNanos.Load()),

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
func (f *Front[C]) accountErr(err error) error {
	if err != nil {
		f.errors.Add(1)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			f.canceled.Add(1)
		}
	}
	return err
}

// validate rejects a query no backend can answer: a malformed preference or
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

// fetchCover is Backend.FetchCover accounted to the cover phase.
func (f *Front[C]) fetchCover(ctx context.Context, p int, pref tops.Preference) (C, int, error) {
	t0 := time.Now()
	c, swept, err := f.b.FetchCover(ctx, p, pref)
	f.coverNanos.Add(time.Since(t0).Nanoseconds())
	return c, swept, err
}

// answer is Backend.Answer accounted to the greedy phase. On success it
// stamps the result with the cover's source and records the query's latency
// from since, split on that source: a memoized cover is the steady-state cached
// path, one that swept rows (a fresh fill or a patch) the cold one. The
// stamp and the record are allocation-free — the zero-alloc cached-query
// gate runs with this instrumentation live.
func (f *Front[C]) answer(ctx context.Context, p int, c C, swept int, opts core.QueryOptions, since time.Time) (*core.QueryResult, error) {
	t0 := time.Now()
	res, err := f.b.Answer(ctx, p, c, opts)
	f.greedyNanos.Add(time.Since(t0).Nanoseconds())
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
// deadline: cancellation aborts the query at the backend's next checkpoint
// (before the cover sweep, between representatives inside it, before the
// greedy and between its rounds on a sharded engine) with the context's
// error.
func (f *Front[C]) Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	res, err := f.serve(ctx, opts)
	if err == nil {
		f.queries.Add(1)
	}
	return res, f.accountErr(err)
}

func (f *Front[C]) serve(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	tServe := time.Now()
	if err := validate(opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := f.b.InstanceFor(opts.Pref.Tau)
	c, swept, err := f.fetchCover(ctx, p, opts.Pref)
	if err != nil {
		return nil, err
	}
	return f.answer(ctx, p, c, swept, opts, tServe)
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
func (f *Front[C]) QueryBatch(ctx context.Context, qs []core.QueryOptions) []BatchItem {
	out := make([]BatchItem, len(qs))
	if len(qs) == 0 {
		return out
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.batches.Add(1)

	type groupKey struct {
		p  int
		fp uint64
	}
	groups := make(map[groupKey][]int)
	for i, q := range qs {
		if err := validate(q); err != nil {
			out[i].Err = f.accountErr(err)
			continue
		}
		key := groupKey{p: f.b.InstanceFor(q.Pref.Tau), fp: core.PrefFingerprint(q.Pref)}
		groups[key] = append(groups[key], i)
	}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for key, members := range groups {
		c, swept, err := f.fetchCover(ctx, key.p, qs[members[0]].Pref)
		if err != nil {
			for _, i := range members {
				out[i].Err = f.accountErr(err)
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
				out[i].Result, out[i].Err = f.answer(ctx, key.p, c, swept, qs[i], time.Now())
				if out[i].Err == nil {
					f.batchQueries.Add(1)
				} else {
					f.accountErr(out[i].Err)
				}
			}(i)
		}
	}
	wg.Wait()
	return out
}

// Mutations. A §6 update is a wal.Mutation value and there is one write
// path for it: Apply takes the write lock — so in-flight queries drain
// first and the backend's cache invalidation happens before any new reader
// can observe the changed state — and hands transition to the sink's live
// discipline (wal.Sink.Apply: apply, then log, then acknowledge);
// ApplyRecord hands the same function to the replay discipline. The typed
// methods below only build the value. With a WAL attached there is one
// record per logical mutation whatever the engine's shard count, so a
// sharded primary's log replays identically into any follower topology.

// Apply is the live write path: it applies m and, with a WAL attached, logs
// it before returning. The engine keeps nothing the caller can still reach
// — trajectories are stored as decoded copies of the value's data, the same
// objects a replay of the logged record would build.
func (f *Front[C]) Apply(m wal.Mutation) (wal.Applied, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.admit != nil {
		if err := f.admit(m); err != nil {
			return wal.Applied{}, err
		}
	}
	return f.sink.Apply(m, f.transition)
}

// SetAdmission installs a check every live mutation must pass before it is
// applied; a non-nil error refuses the mutation untouched. It sits inside
// Apply, so no route to the engine — typed method, Apply, HTTP — can skip
// it. shard.Member refuses sites its partition does not own this way. Call
// before the engine serves.
func (f *Front[C]) SetAdmission(admit func(wal.Mutation) error) { f.admit = admit }

// transition is Backend.ApplyMutation plus the tally, so live application
// and replay of the same history cannot report different numbers. Caller
// holds the write lock.
func (f *Front[C]) transition(m wal.Mutation) ([]trajectory.ID, error) {
	ids, err := f.b.ApplyMutation(m)
	if err != nil {
		return nil, err
	}
	f.updates.count(m)
	return ids, nil
}

// AddSite registers a new candidate site.
func (f *Front[C]) AddSite(v roadnet.NodeID) error {
	_, err := f.Apply(wal.Mutation{Kind: wal.KindAddSite, Node: v})
	return err
}

// DeleteSite removes a candidate site.
func (f *Front[C]) DeleteSite(v roadnet.NodeID) error {
	_, err := f.Apply(wal.Mutation{Kind: wal.KindDeleteSite, Node: v})
	return err
}

// AddSites registers a batch of candidate sites atomically.
func (f *Front[C]) AddSites(nodes []roadnet.NodeID) error {
	_, err := f.Apply(wal.Mutation{Kind: wal.KindAddSites, Nodes: nodes})
	return err
}

// AddTrajectory ingests one trajectory.
func (f *Front[C]) AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error) {
	a, err := f.Apply(wal.Mutation{Kind: wal.KindAddTrajectory, Traj: wal.FromTrajectory(tr)})
	if err != nil {
		return 0, err
	}
	return a.IDs[0], nil
}

// DeleteTrajectory removes one trajectory.
func (f *Front[C]) DeleteTrajectory(tid trajectory.ID) error {
	_, err := f.Apply(wal.Mutation{Kind: wal.KindDeleteTrajectory, ID: tid})
	return err
}

// AddTrajectories ingests a batch of trajectories atomically.
func (f *Front[C]) AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	a, err := f.Apply(wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: wal.FromTrajectories(trs)})
	return a.IDs, err
}

// DeleteTrajectories removes a batch of trajectories atomically.
func (f *Front[C]) DeleteTrajectories(ids []trajectory.ID) error {
	_, err := f.Apply(wal.Mutation{Kind: wal.KindDeleteTrajectories, IDs: ids})
	return err
}

// Durability and replication surface: the LSN the engine has reached and a
// replay entry point that applies logged records without re-logging them
// (crash recovery and follower tailing). The sink's LSN is the only one
// kept: Engine.Snapshot stamps it into what it writes.

// LSN reports the last applied write-ahead-log sequence number.
func (f *Front[C]) LSN() uint64 { return f.sink.LSN() }

// Epoch reports the replication fencing token this engine last observed
// (0 until a term is opened or replayed).
func (f *Front[C]) Epoch() uint64 { return f.sink.Epoch() }

// RestoreEpoch stamps the epoch recovered from a checkpoint container.
// Load-time only, before any mutations or replay.
func (f *Front[C]) RestoreEpoch(epoch uint64) { f.sink.RestoreEpoch(epoch) }

// BeginEpoch opens a new primary term: it logs a KindEpoch record (when a
// WAL is attached) and advances the fencing token, which must be strictly
// newer than the current one. Promotion calls this with Epoch()+1.
func (f *Front[C]) BeginEpoch(epoch uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.sink.BeginEpoch(epoch)
	return err
}

// AttachWAL connects the engine to its log: every later mutation appends a
// record before it is acknowledged. The log must be positioned exactly at
// the engine's LSN — recover first (wal.Replay), then attach. An empty log
// is based at the engine's LSN, covering both a fresh deployment and a
// checkpoint restored into a compacted-away log directory.
func (f *Front[C]) AttachWAL(l *wal.Log) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sink.Attach(l)
}

// ApplyRecord is the replay path: it applies one logged mutation through
// transition — the function Apply logged it from — without re-logging it.
// Crash recovery drives the checkpoint's tail through it, and a follower
// drives the primary's streamed records through it. Records must arrive in
// LSN order; a WAL-attached engine refuses (its records originate locally).
func (f *Front[C]) ApplyRecord(rec wal.Record) error {
	m, err := rec.Mutation()
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.sink.Replay(rec.LSN, m, f.transition); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
