package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// Options configures a sharded engine.
type Options struct {
	// Shards is the number of engine shards N (>= 1).
	Shards int
	// Partitioner selects the site partitioner by name: "hash" (default)
	// or "grid".
	Partitioner string
	// Build configures every per-shard index build. TauMin/TauMax are
	// derived ONCE from the full site set when zero, so all shards share
	// one ladder (and match a single-shard build of the same dataset).
	Build core.Options
	// Engine configures the per-shard engines (cover caching policy) and
	// the gather's result pooling.
	Engine engine.Options
}

// Sharded is a scatter-gather engine over N site-partitioned shards in one
// process: the engine.Front shell over the scatter-gather backend. It is
// the in-process twin of a router-fronted topology — what the router and
// cross-process oracles compare the members behind topsrouter against, and
// the shard rung of the benchmark ladder — not a serving mode: it neither
// snapshots nor checkpoints, so it is not a server.Engine. It is bit-exact
// against the single engine: for any sequential workload of queries and §6
// updates, selected sites, dense site ids, and estimated utilities are
// identical to a single-shard engine over the same dataset (enforced by the
// shard-differential oracle).
//
// All exported methods are safe for concurrent use. Queries share the
// shell's read lock; updates take its write lock, route to the owning shard
// (site mutations) or broadcast (trajectory mutations), and patch the
// cluster ownership tables in place (a site mutation can move only the
// representative of its own cluster per instance). The shell's sink
// receives the global mutation stream when a log is attached; the per-shard
// engines never log, so one logical mutation is one record regardless of
// shard count.
type Sharded struct {
	engine.Front[*gatherSet]
	g      *roadnet.Graph
	part   Partitioner
	shards []*engine.Engine
	opts   Options

	// sites is the global dense site-id mirror, so QueryResult.SiteIDs
	// match the single-shard engine.
	sites *SiteMirror

	// Cluster ownership per ladder instance, derived lazily and patched in
	// place on every site mutation.
	ownMu sync.Mutex
	own   map[int]*Ownership
}

// Build partitions inst's candidate sites across opts.Shards shards, builds
// one NETCLUS index per shard (same graph, replicated trajectories, owned
// sites only) and wraps each in an engine. The per-shard builds run
// concurrently, splitting opts.Build.Workers between them.
func Build(inst *tops.Instance, opts Options) (*Sharded, error) {
	if inst == nil {
		return nil, fmt.Errorf("shard: nil instance")
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", opts.Shards)
	}
	part, err := NewPartitioner(opts.Partitioner, opts.Shards, inst.G)
	if err != nil {
		return nil, err
	}
	if err := deriveLadderRange(inst, &opts.Build); err != nil {
		return nil, err
	}
	insts := shardInstances(part, inst)

	// Split the worker budget across concurrent shard builds.
	workers := opts.Build.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	perShard := workers / opts.Shards
	if perShard < 1 {
		perShard = 1
	}
	idxs := make([]*core.Index, opts.Shards)
	errs := make([]error, opts.Shards)
	var wg sync.WaitGroup
	for j := range insts {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			bopts := opts.Build
			bopts.Workers = perShard
			idxs[j], errs[j] = core.Build(insts[j], bopts)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", j, err)
		}
	}

	s := &Sharded{
		g:     inst.G,
		part:  part,
		opts:  opts,
		sites: NewSiteMirror(inst.Sites),
		own:   make(map[int]*Ownership),
	}
	ladders := make([]Ladder, len(idxs))
	for j, idx := range idxs {
		ladders[j] = ladderOf(idx)
	}
	if err := CheckLadders(ladders); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	for j, idx := range idxs {
		eng, err := engine.New(idx, opts.Engine)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d engine: %w", j, err)
		}
		s.shards = append(s.shards, eng)
	}
	s.Init(backend{s}, 0)
	return s, nil
}

// shardInstances derives the per-shard problem instances: the shared graph,
// an independent clone of the trajectory store (so dynamic additions assign
// identical ids everywhere), and the sites the partitioner routes to the
// shard, in their original relative order.
func shardInstances(part Partitioner, inst *tops.Instance) []*tops.Instance {
	n := part.Shards()
	bySite := make([][]roadnet.NodeID, n)
	for _, v := range inst.Sites {
		j := part.Shard(v)
		bySite[j] = append(bySite[j], v)
	}
	out := make([]*tops.Instance, n)
	for j := 0; j < n; j++ {
		out[j] = &tops.Instance{G: inst.G, Trajs: inst.Trajs.Clone(), Sites: bySite[j]}
	}
	return out
}

// Graph returns the shared road network.
func (s *Sharded) Graph() *roadnet.Graph { return s.g }

// ownership derives (or returns the cached) cluster ownership of instance
// p from every shard's representatives.
func (s *Sharded) ownership(p int) *Ownership {
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	if o := s.own[p]; o != nil {
		return o
	}
	rows := make([][]core.RepInfo, len(s.shards))
	for j, sh := range s.shards {
		rows[j] = sh.RepInfos(p)
	}
	o := ReduceOwnership(rows)
	s.own[p] = o
	return o
}

// updateOwnershipAt refreshes the cached ownership tables after a site
// mutation at node v. A site add/delete moves representatives only inside
// v's cluster at each instance (core's §6 update rule), so instead of
// dropping the tables — which would force a full cross-shard re-reduction
// per query after every update — the one affected cluster's winner is
// re-reduced in place. Runs under the write lock: no query holds a gather
// in flight while the winner list and masks are spliced.
func (s *Sharded) updateOwnershipAt(v roadnet.NodeID) {
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	for p, own := range s.own {
		ci := s.shards[0].ClusterOf(p, v)
		if ci == core.InvalidCluster {
			continue
		}
		var best core.RepInfo
		owner := int32(-1)
		for j, sh := range s.shards {
			if ri, ok := sh.RepOfCluster(p, ci); ok && (owner < 0 || closerRep(ri, best)) {
				owner, best = int32(j), ri
			}
		}
		own.setWinner(ci, owner, best.Node)
	}
}

// gatherSet is one scatter's result: the owning shards' masked covers, in
// ascending shard order, under the ownership they were fetched for, and the
// rows the shards swept between them to produce the covers (0: all served
// from their cover caches).
type gatherSet struct {
	own    *Ownership
	covers []Cover
	swept  int
}

// scatter fetches every owning shard's masked cover for (p, ψ), one shard
// after another on the query's goroutine.
func (s *Sharded) scatter(ctx context.Context, p int, pref tops.Preference, own *Ownership) (*gatherSet, error) {
	gs := &gatherSet{own: own, covers: make([]Cover, 0, len(s.shards))}
	for j, sh := range s.shards {
		if len(own.Masks[j]) == 0 {
			continue
		}
		c := Cover{Shard: j}
		var swept int
		var err error
		if c.CS, c.Reps, swept, err = sh.CoverMasked(ctx, p, pref, own.Masks[j]); err != nil {
			return nil, err
		}
		gs.covers = append(gs.covers, c)
		gs.swept += swept
	}
	return gs, nil
}

// backend is Sharded as the shell's engine.Backend. A type of its own so
// that these methods, which run under a lock the shell already holds, stay
// off Sharded's method set.
type backend struct{ s *Sharded }

func (b backend) InstanceFor(tau float64) int { return b.s.shards[0].InstanceFor(tau) }

// FetchCover scatters under the current cluster ownership of instance p.
func (b backend) FetchCover(ctx context.Context, p int, pref tops.Preference) (*gatherSet, int, error) {
	gs, err := b.s.scatter(ctx, p, pref, b.s.ownership(p))
	if err != nil {
		return nil, 0, err
	}
	return gs, gs.swept, nil
}

// Answer runs the gather phase the router runs too (shard.Answer).
func (b backend) Answer(ctx context.Context, p int, gs *gatherSet, opts core.QueryOptions) (*core.QueryResult, error) {
	return Answer(ctx, p, gs.own, gs.covers, b.s.sites, opts, !b.s.opts.Engine.DisablePooling)
}

// ApplyMutation is the sharded transition function: site kinds route to
// the owning shards, trajectory kinds broadcast. The shards apply through
// their own engines' Apply, which never carry a log.
func (b backend) ApplyMutation(m wal.Mutation) ([]trajectory.ID, error) {
	if m.Kind.Routed() {
		return nil, b.s.routeSites(m)
	}
	return b.s.broadcast(m)
}

// routeSites applies a site kind on the shard (for a batch: the shards)
// owning its nodes, then brings the global site mirror and the cluster
// ownership tables up to date.
func (s *Sharded) routeSites(m wal.Mutation) error {
	nodes := m.Sites()
	if m.Kind == wal.KindAddSites {
		// A batch can span shards and no shard can undo another's share, so
		// all-or-nothing (the single-shard batch contract) is checked here.
		if err := s.checkSiteBatch(nodes); err != nil {
			return err
		}
	}
	byShard := make([][]roadnet.NodeID, len(s.shards))
	for _, v := range nodes {
		j := s.part.Shard(v)
		byShard[j] = append(byShard[j], v)
	}
	for j, group := range byShard {
		if len(group) == 0 {
			continue
		}
		sub := m
		if m.Kind == wal.KindAddSites {
			sub.Nodes = group
		}
		if _, err := s.shards[j].Apply(sub); err != nil {
			if m.Kind == wal.KindAddSites {
				// Unreachable after checkSiteBatch; surface loudly if a shard
				// still disagrees, because state has diverged.
				return fmt.Errorf("shard: AddSites: shard %d rejected a pre-validated batch: %w", j, err)
			}
			return err
		}
	}
	for _, v := range nodes {
		if m.Kind == wal.KindDeleteSite {
			s.sites.Delete(v)
		} else {
			s.sites.Add(v)
		}
		s.updateOwnershipAt(v)
	}
	return nil
}

// checkSiteBatch validates an add_sites batch as a whole against the global
// site set.
func (s *Sharded) checkSiteBatch(nodes []roadnet.NodeID) error {
	dup := make(map[roadnet.NodeID]bool, len(nodes))
	for _, v := range nodes {
		if v < 0 || int(v) >= s.g.NumNodes() {
			return fmt.Errorf("shard: AddSites: node %d outside graph", v)
		}
		if s.sites.ID(v) != tops.InvalidSiteID {
			return fmt.Errorf("shard: AddSites: node %d is already a site", v)
		}
		if dup[v] {
			return fmt.Errorf("shard: AddSites: node %d listed twice", v)
		}
		dup[v] = true
	}
	return nil
}

// broadcast applies a trajectory kind to every shard. An add kind is
// decoded once, here, so all shards store the same trajectory objects.
// Shard 0 validates before mutating (core's contract), so an invalid
// request fails cleanly with no shard touched; the shards past it hold
// identical trajectory state (their stores are clones of one origin), so a
// failure or a different assigned id there means they have diverged.
func (s *Sharded) broadcast(m wal.Mutation) ([]trajectory.ID, error) {
	if _, err := m.Trajectories(s.g); err != nil {
		return nil, err
	}
	var ids []trajectory.ID
	for j, sh := range s.shards {
		a, err := sh.Apply(m)
		if err == nil && j > 0 && !slices.Equal(a.IDs, ids) {
			err = fmt.Errorf("assigned ids %v, expected %v", a.IDs, ids)
		}
		if err != nil {
			if j > 0 {
				return nil, fmt.Errorf("shard: shard %d diverged during a trajectory broadcast: %w", j, err)
			}
			return nil, err
		}
		ids = a.IDs
	}
	return ids, nil
}

// CoverCacheStats sums the shards' cover-cache counters.
func (b backend) CoverCacheStats() core.CoverCacheStats {
	var st core.CoverCacheStats
	for _, sh := range b.s.shards {
		cc := sh.Index().CoverCacheStats()
		st.Hits += cc.Hits
		st.Misses += cc.Misses
		st.Revalidated += cc.Revalidated
		st.RowsSwept += cc.RowsSwept
		st.Entries += cc.Entries
	}
	return st
}
