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
// The layer itself is split in two. Front (front.go) is the shell: the
// lock, the WAL sink, the counters, and the one Query / QueryBatch / Apply /
// ApplyRecord written over a Backend. Engine (this file) is the single-index
// Backend — the ladder lookup, the core cover fetch, the core greedy, the
// core §6 calls — plus the snapshot and checkpoint writers, which only a
// served engine needs; shard.Sharded, the in-process twin of a
// router-fronted topology, is the scatter-gather Backend. Both embed the
// shell, so the two answer from one body.
package engine

import (
	"context"
	"fmt"
	"io"
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

// Engine wraps a *core.Index for concurrent serving: the Front shell over
// the single-index backend. All exported methods are safe for concurrent
// use; an Index must be driven through at most one Engine (mutating the
// Index directly while an Engine serves it breaks the locking protocol).
type Engine struct {
	Front[cover]
	idx  *core.Index
	opts Options
}

// New wraps idx. The Engine takes ownership of the index's mutation
// surface: all further updates must go through the Engine.
func New(idx *core.Index, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("engine: nil index")
	}
	e := &Engine{idx: idx, opts: opts}
	e.Init(backend{e}, idx.WalLSN())
	return e, nil
}

// Index exposes the wrapped index for read-only inspection (stats, exact
// evaluation against a distance index). Mutating it directly bypasses the
// Engine's locking — use the Engine's update methods instead.
func (e *Engine) Index() *core.Index { return e.idx }

// cover is the single engine's cover handle: one covering structure and the
// clusters its dense representative indices stand for.
type cover struct {
	cs   *tops.CoverSets
	reps []core.ClusterID
}

// fetch gets the covering structure of instance p under pref — restricted
// to the clusters in keep (sorted ascending) when keep is non-nil — under
// the engine's caching policy: memoized in the index's cover cache, or
// filled fresh per call (the paper's RepCover behaviour) when the cache is
// disabled. The int is the number of representative rows swept (0: the
// cache served it). The context cancels the sweep between representatives.
func (e *Engine) fetch(ctx context.Context, p int, pref tops.Preference, keep []core.ClusterID) (c cover, swept int, err error) {
	switch {
	case !e.opts.DisableCoverCache && keep == nil:
		c.cs, c.reps, swept, err = e.idx.CoverForCtx(ctx, p, pref)
	case !e.opts.DisableCoverCache:
		c.cs, c.reps, swept, err = e.idx.CoverForMaskedCtx(ctx, p, pref, keep)
	case keep == nil:
		c.cs, c.reps, err = e.idx.RepCoverCtx(ctx, p, pref)
		swept = len(c.reps)
	default:
		c.cs, c.reps, err = e.idx.RepCoverMaskedCtx(ctx, p, pref, keep)
		swept = len(c.reps)
	}
	return c, swept, err
}

// backend is Engine as the shell's Backend. A type of its own so that these
// methods, which run under a lock the shell already holds, stay off
// Engine's method set.
type backend struct{ e *Engine }

func (b backend) InstanceFor(tau float64) int { return b.e.idx.InstanceFor(tau) }

func (b backend) FetchCover(ctx context.Context, p int, pref tops.Preference) (cover, int, error) {
	return b.e.fetch(ctx, p, pref, nil)
}

// Answer runs the greedy phase under the engine's pooling policy: pooled
// scratch by default (the caller may Release the result), fresh allocations
// under DisablePooling.
func (b backend) Answer(ctx context.Context, p int, c cover, opts core.QueryOptions) (*core.QueryResult, error) {
	if b.e.opts.DisablePooling {
		return b.e.idx.QueryOnCoverCtx(ctx, p, c.cs, c.reps, opts)
	}
	return b.e.idx.QueryOnCoverPooledCtx(ctx, p, c.cs, c.reps, opts)
}

// ApplyMutation makes the core call m stands for.
func (b backend) ApplyMutation(m wal.Mutation) ([]trajectory.ID, error) {
	idx := b.e.idx
	trs, err := m.Trajectories(b.e.Graph())
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

func (b backend) CoverCacheStats() core.CoverCacheStats { return b.e.idx.CoverCacheStats() }

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
	c, swept, err := e.fetch(ctx, p, pref, keep)
	e.coverNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, nil, 0, e.accountErr(err)
	}
	return c.cs, c.reps, swept, nil
}
