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
//
// The layer is one concrete type in two files: front.go is the serving
// shell — the lock, the WAL sink, the counters, and the one Query /
// QueryBatch / Apply / ApplyRecord — and this file is what it wraps: the
// ladder lookup, the core cover fetch, the snapshot and checkpoint writers,
// and the read-locked hooks a shard member (internal/shard) serves the
// router from.
package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
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
// locking protocol). Queries share the read lock; mutations take the write
// lock, so in-flight queries drain first.
type Engine struct {
	mu   sync.RWMutex
	idx  *core.Index
	opts Options

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

// New wraps idx. The Engine takes ownership of the index's mutation
// surface: all further updates must go through the Engine.
func New(idx *core.Index, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("engine: nil index")
	}
	e := &Engine{idx: idx, opts: opts}
	e.sink.SetLSN(idx.WalLSN())
	return e, nil
}

// Index exposes the wrapped index for read-only inspection (stats, exact
// evaluation against a distance index). Mutating it directly bypasses the
// Engine's locking — use the Engine's update methods instead.
func (e *Engine) Index() *core.Index { return e.idx }

// fetch gets the covering structure of instance p under pref — restricted
// to the clusters in keep (sorted ascending) when keep is non-nil — and the
// clusters its dense representative indices stand for, under the engine's
// caching policy: memoized in the index's cover cache, or filled fresh per
// call (the paper's RepCover behaviour) when the cache is disabled. The int
// is the number of representative rows swept (0: the cache served it). The
// context cancels the sweep between representatives.
func (e *Engine) fetch(ctx context.Context, p int, pref tops.Preference, keep []core.ClusterID) (cs *tops.CoverSets, reps []core.ClusterID, swept int, err error) {
	switch {
	case !e.opts.DisableCoverCache && keep == nil:
		return e.idx.CoverForCtx(ctx, p, pref)
	case !e.opts.DisableCoverCache:
		return e.idx.CoverForMaskedCtx(ctx, p, pref, keep)
	case keep == nil:
		cs, reps, err = e.idx.RepCoverCtx(ctx, p, pref)
	default:
		cs, reps, err = e.idx.RepCoverMaskedCtx(ctx, p, pref, keep)
	}
	return cs, reps, len(reps), err
}

// greedy runs the greedy phase under the engine's pooling policy: pooled
// scratch by default (the caller may Release the result), fresh allocations
// under DisablePooling.
func (e *Engine) greedy(ctx context.Context, p int, cs *tops.CoverSets, reps []core.ClusterID, opts core.QueryOptions) (*core.QueryResult, error) {
	if e.opts.DisablePooling {
		return e.idx.QueryOnCoverCtx(ctx, p, cs, reps, opts)
	}
	return e.idx.QueryOnCoverPooledCtx(ctx, p, cs, reps, opts)
}

// applyMutation is the engine's one transition function over mutations,
// reached by Apply (live) and ApplyRecord (replay) alike: it makes the core
// call m stands for and returns the ids an add kind assigned. Caller holds
// the write lock.
func (e *Engine) applyMutation(m wal.Mutation) ([]trajectory.ID, error) {
	idx := e.idx
	trs, err := m.Trajectories(e.Graph())
	if err != nil {
		return nil, err
	}
	var ids []trajectory.ID
	switch m.Kind {
	case wal.KindAddSite:
		err = idx.AddSite(m.Node)
	case wal.KindDeleteSite:
		err = idx.DeleteSite(m.Node)
	case wal.KindAddSites:
		err = idx.AddSites(m.Nodes)
	case wal.KindAddTrajectory:
		ids = make([]trajectory.ID, 1)
		ids[0], err = idx.AddTrajectory(trs[0])
	case wal.KindDeleteTrajectory:
		err = idx.DeleteTrajectory(m.ID)
	case wal.KindAddTrajectories:
		ids, err = idx.AddTrajectories(trs)
	case wal.KindDeleteTrajectories:
		err = idx.DeleteTrajectories(m.IDs)
	default:
		err = fmt.Errorf("engine: %s is not a §6 mutation", m.Kind)
	}
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// Snapshot serializes the served index under the read lock, so a live
// service can checkpoint while serving queries: concurrent queries proceed,
// mutations wait, and the written snapshot is always a consistent state
// stamped with the LSN it reflects. Reload with core.ReadIndex. (Calling
// core.Index.WriteTo directly on a served index races with updates; this is
// the supported path.)
func (e *Engine) Snapshot(w io.Writer) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.writeSnapshot(w)
}

func (e *Engine) writeSnapshot(w io.Writer) (int64, error) {
	return e.idx.WriteSnapshot(w, e.LSN())
}

// Checkpoint writes the recovery bundle under the read lock: the mutated
// dataset state (site order, trajectory store) plus the LSN-stamped
// snapshot, all mutually consistent because mutations hold the write lock
// across apply+log. Reload with the netclus.LoadCheckpoint facade.
func (e *Engine) Checkpoint(w io.Writer) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inst := e.idx.TopsInstance()
	return wal.WriteCheckpoint(w, inst.Sites, inst.Trajs, e.Epoch(), e.writeSnapshot)
}

// Sharding hooks. A shard member (internal/shard) is an Engine that serves
// the router through these read-locked accessors: per-cluster
// representative summaries (for the cross-shard winner reduction) and
// masked cover fills restricted to the clusters the shard currently owns.
// They are exported for the shard layer, not for general use —
// applications query through Query/QueryBatch.

// Graph returns the road network the served index is built over.
func (e *Engine) Graph() *roadnet.Graph { return e.idx.TopsInstance().G }

// RepInfos summarizes instance p's cluster representatives (cluster, node,
// dr) under the read lock.
func (e *Engine) RepInfos(p int) []core.RepInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx.RepInfos(p)
}

// CoverMasked fetches the covering structure of instance p under pref
// restricted to the clusters in keep (sorted ascending), under the Query
// path's caching policy and accounted like any other cover fetch. A nil
// keep is the empty mask, not the full cover.
func (e *Engine) CoverMasked(ctx context.Context, p int, pref tops.Preference, keep []core.ClusterID) (*tops.CoverSets, []core.ClusterID, int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if keep == nil {
		keep = []core.ClusterID{}
	}
	t0 := time.Now()
	cs, reps, swept, err := e.fetch(ctx, p, pref, keep)
	e.coverNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, nil, 0, e.accountErr(err)
	}
	return cs, reps, swept, nil
}
