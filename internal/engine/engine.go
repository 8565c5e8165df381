// Package engine is the concurrent query layer above the NETCLUS index:
// it owns the reader/writer protocol that core.Index deliberately does not
// (queries take a read lock and share memoized covering structures; §6
// mutations take the write lock, which also fences cache invalidation), and
// it measures the traffic it serves.
//
// The split follows a classic instrumentation-systems layering: keep the
// measurement core pure and single-purpose, put lifecycle, concurrency, and
// accounting in a thin layer above it. core stays a synchronous library;
// engine turns it into something that can sustain query traffic.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// Options configures an Engine.
type Options struct {
	// DisableCoverCache makes every query rebuild its covering structure
	// instead of hitting the core memoization — the paper's per-query
	// RepCover behaviour. Exists for memory-constrained deployments and as
	// the baseline arm of BenchmarkEngineQPS.
	DisableCoverCache bool
	// BatchWorkers bounds the number of concurrent greedy runs inside one
	// QueryBatch call. Zero means runtime.NumCPU().
	BatchWorkers int
	// DisablePooling makes every query allocate fresh result and greedy
	// buffers instead of drawing from the scratch pool, and makes Release
	// on its results a no-op. It is the reference arm: the pooling
	// differential tests (and the "before" benchmark arm) compare pooled
	// answers bit-for-bit against an engine running with this set.
	DisablePooling bool
}

// Engine wraps a *core.Index for concurrent serving. All exported methods
// are safe for concurrent use; an Index must be driven through at most one
// Engine (mutating the Index directly while an Engine serves it breaks the
// locking protocol).
type Engine struct {
	mu   sync.RWMutex
	idx  *core.Index
	opts Options

	// sink owns the attached log, the engine LSN, and the broken latch
	// (see wal.Sink); every successful mutation commits a typed record
	// through it before the caller is acknowledged. After an append
	// failure the sink refuses further mutations until the process
	// restarts and recovers (queries keep serving).
	sink wal.Sink

	// admit, when set, vets every live mutation before it is applied (see
	// SetAdmission). Replay trusts the log and skips it.
	admit func(wal.Mutation) error

	queries      atomic.Uint64
	batchQueries atomic.Uint64
	batches      atomic.Uint64
	updates      UpdateCounters
	errors       atomic.Uint64
	canceled     atomic.Uint64
	coverNanos   atomic.Int64
	greedyNanos  atomic.Int64
}

// New wraps idx. The Engine takes ownership of the index's mutation
// surface: all further updates must go through the Engine.
func New(idx *core.Index, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("engine: nil index")
	}
	if opts.BatchWorkers < 0 {
		return nil, fmt.Errorf("engine: negative BatchWorkers %d", opts.BatchWorkers)
	}
	e := &Engine{idx: idx, opts: opts}
	e.sink.SetLSN(idx.WalLSN())
	return e, nil
}

// Index exposes the wrapped index for read-only inspection (stats, exact
// evaluation against a distance index). Mutating it directly bypasses the
// Engine's locking — use the Engine's update methods instead.
func (e *Engine) Index() *core.Index { return e.idx }

// Snapshot serializes the wrapped index under the read lock, so a live
// service can checkpoint while serving queries: concurrent queries proceed,
// mutations wait, and the written snapshot is always a consistent state.
// (Calling core.Index.WriteTo directly on a served index races with
// updates; this is the supported path.)
func (e *Engine) Snapshot(w io.Writer) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx.WriteTo(w)
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
	// The core cover-cache counters (core.CoverCacheStats): CoverHits counts
	// lookups that swept no representative row — CoverRevalidated of them by
	// re-checking a cover against moved representatives — CoverMisses those
	// that swept at least one, CoverRowsSwept the rows; CoverEntries is the
	// number of covers currently memoized.
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
	st := Stats{
		Queries:      e.queries.Load(),
		BatchQueries: e.batchQueries.Load(),
		Batches:      e.batches.Load(),
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
	e.updates.Fill(&st)
	return st
}

// UpdateCounters tallies applied §6 mutations for Stats: calls, and items
// per kind. Engine and shard.Sharded both count through it, from the one
// function each applies a mutation in, so live application and replay of
// the same history cannot report different numbers.
type UpdateCounters struct {
	updates, siteAdds, siteDeletes, trajAdds, trajDeletes atomic.Uint64
}

// Count tallies one applied mutation.
func (c *UpdateCounters) Count(m wal.Mutation) {
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

// Fill copies the tallies into st.
func (c *UpdateCounters) Fill(st *Stats) {
	st.Updates = c.updates.Load()
	st.SiteAdds = c.siteAdds.Load()
	st.SiteDeletes = c.siteDeletes.Load()
	st.TrajAdds = c.trajAdds.Load()
	st.TrajDeletes = c.trajDeletes.Load()
}

// cover fetches (or builds) the covering structure for instance p under the
// engine's caching policy, accounting the time to the cover phase and
// reporting how many representative rows it had to sweep (0: the memoized
// cache served it). The context cancels the sweep between representatives
// (see core.RepCoverCtx).
func (e *Engine) cover(ctx context.Context, p int, pref tops.Preference) (*tops.CoverSets, []core.ClusterID, int, error) {
	t0 := time.Now()
	var cs *tops.CoverSets
	var reps []core.ClusterID
	var swept int
	var err error
	if e.opts.DisableCoverCache {
		cs, reps, err = e.idx.RepCoverCtx(ctx, p, pref)
		swept = len(reps)
	} else {
		cs, reps, swept, err = e.idx.CoverForCtx(ctx, p, pref)
	}
	e.coverNanos.Add(time.Since(t0).Nanoseconds())
	return cs, reps, swept, err
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

// Query answers one TOPS query under a read lock, so any number of Query
// and QueryBatch calls proceed concurrently with each other and the cover
// cache is shared between them. The context carries the per-request
// deadline: cancellation aborts the query at the next core checkpoint
// (before the cover sweep, between representatives inside it, before the
// greedy) with the context's error.
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
	if err := opts.Pref.Validate(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("engine: k = %d must be positive", opts.K)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := e.idx.InstanceFor(opts.Pref.Tau)
	cs, reps, swept, err := e.cover(ctx, p, opts.Pref)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := e.queryOnCover(ctx, p, cs, reps, opts)
	e.greedyNanos.Add(time.Since(t0).Nanoseconds())
	if err == nil {
		// The latency split keys on the cover source: a memoized cover is
		// the steady-state cached path, one that swept rows (a fresh fill
		// or a patch) the cold one. Record and the stamp are
		// allocation-free — the zero-alloc cached-query gate runs with this
		// instrumentation live.
		res.CoverHit, res.CoverRowsSwept = swept == 0, swept
		if res.CoverHit {
			obs.QueryCached.RecordSince(tServe)
		} else {
			obs.QueryUncached.RecordSince(tServe)
		}
	}
	return res, err
}

// queryOnCover runs the greedy phase under the engine's pooling policy:
// pooled scratch by default (the caller may Release the result), fresh
// allocations under DisablePooling.
func (e *Engine) queryOnCover(ctx context.Context, p int, cs *tops.CoverSets, reps []core.ClusterID, opts core.QueryOptions) (*core.QueryResult, error) {
	if e.opts.DisablePooling {
		return e.idx.QueryOnCoverCtx(ctx, p, cs, reps, opts)
	}
	return e.idx.QueryOnCoverPooledCtx(ctx, p, cs, reps, opts)
}

// Sharding hooks. internal/shard runs one Engine per shard and drives the
// scatter phase through these read-locked accessors: ladder selection,
// per-cluster representative summaries (for the cross-shard winner
// reduction), and masked cover fills restricted to the clusters the shard
// currently owns. They are exported for the shard layer, not for general
// use — applications query through Query/QueryBatch.

// Graph returns the road network the served index is built over.
func (e *Engine) Graph() *roadnet.Graph { return e.idx.TopsInstance().G }

// InstanceFor returns the ladder position serving threshold τ, under the
// read lock so it cannot interleave with a mutation.
func (e *Engine) InstanceFor(tau float64) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx.InstanceFor(tau)
}

// RepInfos summarizes instance p's cluster representatives (cluster, node,
// dr) under the read lock.
func (e *Engine) RepInfos(p int) []core.RepInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx.RepInfos(p)
}

// ClusterOf returns node v's cluster at instance p (InvalidCluster when v
// is outside the graph), under the read lock.
func (e *Engine) ClusterOf(p int, v roadnet.NodeID) core.ClusterID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx.ClusterOf(p, v)
}

// RepOfCluster returns cluster ci's representative at instance p, under the
// read lock.
func (e *Engine) RepOfCluster(p int, ci core.ClusterID) (core.RepInfo, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx.RepOfCluster(p, ci)
}

// CoverMasked fetches (or fills) the covering structure of instance p under
// pref restricted to the clusters in keep (sorted ascending), memoized in
// the index's cover cache and validated against the mask — or filled fresh
// per call when the engine's cover cache is disabled, mirroring the Query
// path's policy. Cover time and the rows-swept return are accounted like any
// other cover fetch (see cover).
func (e *Engine) CoverMasked(ctx context.Context, p int, pref tops.Preference, keep []core.ClusterID) (*tops.CoverSets, []core.ClusterID, int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t0 := time.Now()
	var cs *tops.CoverSets
	var reps []core.ClusterID
	var swept int
	var err error
	if e.opts.DisableCoverCache {
		cs, reps, err = e.idx.RepCoverMaskedCtx(ctx, p, pref, keep)
		swept = len(reps)
	} else {
		cs, reps, swept, err = e.idx.CoverForMaskedCtx(ctx, p, pref, keep)
	}
	e.coverNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, nil, 0, e.accountErr(err)
	}
	return cs, reps, swept, nil
}

// BatchItem is one QueryBatch outcome, index-aligned with the input.
type BatchItem struct {
	Result *core.QueryResult
	Err    error
}

// QueryBatch answers many queries under one read lock, grouping them by
// (ladder instance, preference fingerprint) so that each group's covering
// structure is fetched exactly once and then serves every (k, ψ-parameter)
// combination in the group; the greedy runs fan out across BatchWorkers.
// The interactive pattern the paper motivates — one analyst re-running a
// query while varying k and τ — maps to groups of size > 1 here; POST
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
		if err := q.Pref.Validate(); err != nil {
			out[i].Err = e.accountErr(err)
			continue
		}
		if q.K <= 0 {
			out[i].Err = e.accountErr(fmt.Errorf("engine: k = %d must be positive", q.K))
			continue
		}
		p := e.idx.InstanceFor(q.Pref.Tau)
		key := groupKey{p: p, fp: core.PrefFingerprint(q.Pref)}
		groups[key] = append(groups[key], i)
	}

	workers := e.opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for key, members := range groups {
		cs, reps, swept, err := e.cover(ctx, key.p, qs[members[0]].Pref)
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
				t0 := time.Now()
				out[i].Result, out[i].Err = e.queryOnCover(ctx, key.p, cs, reps, qs[i])
				e.greedyNanos.Add(time.Since(t0).Nanoseconds())
				if out[i].Err == nil {
					out[i].Result.CoverHit, out[i].Result.CoverRowsSwept = swept == 0, swept
					// Per-item latency: batch items ride a shared cover, so the
					// greedy phase is the whole per-query cost here.
					if swept == 0 {
						obs.QueryCached.RecordSince(t0)
					} else {
						obs.QueryUncached.RecordSince(t0)
					}
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
// first and core's cache invalidation happens before any new reader can
// observe the changed index — and hands applyMutation, the engine's one
// transition function, to the sink's live discipline (wal.Sink.Apply:
// apply, then log, then acknowledge); ApplyRecord hands the same function
// to the replay discipline. The write lock makes apply+append atomic with
// respect to snapshots — a checkpoint can never observe state ahead of its
// stamped LSN. The typed methods below only build the value.

// Apply is the live write path: it applies m and, with a WAL attached, logs
// it before returning. The engine keeps nothing the caller can still reach
// — trajectories are stored as decoded copies of the value's data, the same
// objects a replay of the logged record would build.
func (e *Engine) Apply(m wal.Mutation) (wal.Applied, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.admit != nil {
		if err := e.admit(m); err != nil {
			return wal.Applied{}, err
		}
	}
	a, err := e.sink.Apply(m, e.applyMutation)
	if a.LSN > 0 {
		e.idx.SetWalLSN(a.LSN)
	}
	return a, err
}

// SetAdmission installs a check every live mutation must pass before it is
// applied; a non-nil error refuses the mutation untouched. It sits inside
// Apply, so no route to the engine — typed method, Apply, HTTP — can skip
// it. shard.Member refuses sites its partition does not own this way. Call
// before the engine serves.
func (e *Engine) SetAdmission(admit func(wal.Mutation) error) { e.admit = admit }

// applyMutation is the one transition function over mutations, reached by
// Apply (live) and ApplyRecord (replay) alike: it makes the core call m
// stands for, tallies it, and returns the ids an add kind assigned. Caller
// holds the write lock.
func (e *Engine) applyMutation(m wal.Mutation) ([]trajectory.ID, error) {
	trs, err := m.Trajectories(e.Graph())
	if err != nil {
		return nil, err
	}
	var ids []trajectory.ID
	switch m.Kind {
	case wal.KindAddSite:
		err = e.idx.AddSite(m.Node)
	case wal.KindDeleteSite:
		err = e.idx.DeleteSite(m.Node)
	case wal.KindAddSites:
		err = e.idx.AddSites(m.Nodes)
	case wal.KindAddTrajectory:
		ids = make([]trajectory.ID, 1)
		ids[0], err = e.idx.AddTrajectory(trs[0])
	case wal.KindDeleteTrajectory:
		err = e.idx.DeleteTrajectory(m.ID)
	case wal.KindAddTrajectories:
		ids, err = e.idx.AddTrajectories(trs)
	case wal.KindDeleteTrajectories:
		err = e.idx.DeleteTrajectories(m.IDs)
	default:
		err = fmt.Errorf("engine: %s is not a §6 mutation", m.Kind)
	}
	if err != nil {
		return nil, err
	}
	e.updates.Count(m)
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

// Durability and replication surface. The engine exposes three things: the
// LSN it has reached, a replay entry point that applies logged records
// without re-logging them (crash recovery and follower tailing), and a
// checkpoint writer that bundles the mutated dataset with an LSN-stamped
// index snapshot (see wal.WriteCheckpoint).

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
	lsn, err := e.sink.BeginEpoch(epoch)
	if err != nil {
		return err
	}
	if lsn > 0 {
		e.idx.SetWalLSN(lsn)
	}
	return nil
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
// applyMutation — the function Apply logged it from — without re-logging
// it. Crash recovery drives the checkpoint's tail through it, and a follower
// drives the primary's streamed records through it. Records must arrive in
// LSN order; a WAL-attached engine refuses (its records originate locally).
func (e *Engine) ApplyRecord(rec wal.Record) error {
	m, err := rec.Mutation()
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sink.Replay(rec.LSN, m, e.applyMutation); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	e.idx.SetWalLSN(rec.LSN)
	return nil
}

// Checkpoint writes the recovery bundle for the served index under the read
// lock: the mutated dataset state (site order, trajectory store) plus the
// LSN-stamped index snapshot, all mutually consistent because mutations
// hold the write lock across apply+log+stamp. Reload with
// wal.ReadCheckpoint + core.ReadIndex (the netclus.LoadCheckpoint facade).
func (e *Engine) Checkpoint(w io.Writer) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inst := e.idx.TopsInstance()
	return wal.WriteCheckpoint(w, inst.Sites, inst.Trajs, e.sink.Epoch(), e.idx.WriteTo)
}
