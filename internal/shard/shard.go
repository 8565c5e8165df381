package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	// supplies BatchWorkers for the gather's QueryBatch fan-out.
	Engine engine.Options
}

// shardState is one engine shard plus its serving gauges.
type shardState struct {
	eng  *engine.Engine
	inst *tops.Instance // shard dataset: shared graph, cloned store, owned sites

	scatters atomic.Uint64 // masked cover fetches served
	inFlight atomic.Int64  // scatter fetches currently executing (queue depth)
	updates  atomic.Uint64 // §6 mutations routed here
}

// Sharded is a scatter-gather engine over N site-partitioned shards. It
// serves the same Query / QueryBatch / Stats / Snapshot surface as
// engine.Engine and is bit-exact against it: for any sequential workload of
// queries and §6 updates, selected sites, dense site ids, and estimated
// utilities are identical to a single-shard engine over the same dataset
// (enforced by the shard-differential oracle).
//
// All exported methods are safe for concurrent use. Queries share a read
// lock; updates take the write lock, route to the owning shard (site
// mutations) or broadcast (trajectory mutations), and patch the cluster
// ownership tables in place (a site mutation can move only the
// representative of its own cluster per instance).
type Sharded struct {
	mu     sync.RWMutex
	g      *roadnet.Graph
	part   Partitioner
	shards []*shardState
	opts   Options

	// sites is the global dense site-id mirror, so QueryResult.SiteIDs
	// match the single-shard engine.
	sites *SiteMirror

	// Cluster ownership per ladder instance, derived lazily and patched in
	// place on every site mutation.
	ownMu sync.Mutex
	own   map[int]*Ownership

	// sink receives the global mutation stream when a log is attached (the
	// per-shard engines never log: the Sharded layer is the system of
	// record, so one logical mutation is one record regardless of shard
	// count). See wal.Sink for the commit/guard/replay discipline.
	sink wal.Sink

	queries      atomic.Uint64
	batchQueries atomic.Uint64
	batches      atomic.Uint64
	updates      engine.UpdateCounters
	errorCount   atomic.Uint64
	canceled     atomic.Uint64
	coverNanos   atomic.Int64
	greedyNanos  atomic.Int64
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
	return assemble(inst, part, insts, idxs, opts)
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

// assemble wires pre-built per-shard indexes into a Sharded engine,
// validating that all shards share one ladder.
func assemble(inst *tops.Instance, part Partitioner, insts []*tops.Instance, idxs []*core.Index, opts Options) (*Sharded, error) {
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
		s.shards = append(s.shards, &shardState{eng: eng, inst: insts[j]})
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Graph returns the shared road network.
func (s *Sharded) Graph() *roadnet.Graph { return s.g }

// Sites returns a copy of the current global site list in dense-id order —
// the site list a snapshot load must be presented with (together with the
// trajectory store) after §6 mutations, mirroring the single-shard
// contract that a snapshot re-attaches only to the exact dataset it was
// taken from.
func (s *Sharded) Sites() []roadnet.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]roadnet.NodeID(nil), s.sites.Sites()...)
}

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
		rows[j] = sh.eng.RepInfos(p)
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
		ci := s.shards[0].eng.ClusterOf(p, v)
		if ci == core.InvalidCluster {
			continue
		}
		var best core.RepInfo
		owner := int32(-1)
		for j, sh := range s.shards {
			if ri, ok := sh.eng.RepOfCluster(p, ci); ok && (owner < 0 || closerRep(ri, best)) {
				owner, best = int32(j), ri
			}
		}
		own.setWinner(ci, owner, best.Node)
	}
}

// gatherSet is one scatter's result: the owning shards' masked covers, in
// ascending shard order, under the ownership they were fetched for, and the
// rows the shards swept between them to produce the covers.
type gatherSet struct {
	own    *Ownership
	covers []shardCover
	swept  int
}

// shardCover is one shard's slice of the query: its masked cover, the
// clusters its local dense representative indices stand for, and the rows
// the shard swept to produce it (0: served from its cover cache).
type shardCover struct {
	shard int
	cs    *tops.CoverSets
	reps  []core.ClusterID
	swept int
}

// scatter fetches every owning shard's masked cover for (p, ψ) — in
// parallel when the machine has the cores for it, which is where
// multi-core sharding earns its keep: a cover fill is milliseconds, a
// greedy round microseconds. Cover wall time is accounted to the cover
// phase.
func (s *Sharded) scatter(ctx context.Context, p int, pref tops.Preference, own *Ownership) (*gatherSet, error) {
	t0 := time.Now()
	defer func() { s.coverNanos.Add(time.Since(t0).Nanoseconds()) }()

	gs := &gatherSet{own: own, covers: make([]shardCover, 0, len(s.shards))}
	for j := range s.shards {
		if len(own.Masks[j]) > 0 {
			gs.covers = append(gs.covers, shardCover{shard: j})
		}
	}
	errs := make([]error, len(gs.covers))
	fetch := func(i int) {
		sc := &gs.covers[i]
		sh := s.shards[sc.shard]
		sh.scatters.Add(1)
		sh.inFlight.Add(1)
		defer sh.inFlight.Add(-1)
		sc.cs, sc.reps, sc.swept, errs[i] = sh.eng.CoverMasked(ctx, p, pref, own.Masks[sc.shard])
	}
	if runtime.GOMAXPROCS(0) > 1 && len(gs.covers) > 1 {
		var wg sync.WaitGroup
		for i := range gs.covers {
			wg.Add(1)
			go func() { defer wg.Done(); fetch(i) }()
		}
		wg.Wait()
	} else {
		for i := range gs.covers {
			fetch(i)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		gs.swept += gs.covers[i].swept
	}
	return gs, nil
}

// accountErr classifies a failure into the error/canceled counters.
func (s *Sharded) accountErr(err error) error {
	if err != nil {
		s.errorCount.Add(1)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.canceled.Add(1)
		}
	}
	return err
}

// Query answers one TOPS query by scatter-gather, bit-exact against the
// single-shard engine. The context cancels the scatter at the shard fills'
// checkpoints and is re-checked before every gather round.
func (s *Sharded) Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, err := s.serve(ctx, opts)
	if err == nil {
		s.queries.Add(1)
	}
	return res, s.accountErr(err)
}

func (s *Sharded) serve(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	if err := opts.Pref.Validate(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("shard: k = %d must be positive", opts.K)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := s.shards[0].eng.InstanceFor(opts.Pref.Tau)
	gs, err := s.scatter(ctx, p, opts.Pref, s.ownership(p))
	if err != nil {
		return nil, err
	}
	return s.answer(ctx, gs, p, opts)
}

var gatherPool = sync.Pool{New: func() any { return new(Gather) }}

// answer runs the gather phase. The common path is the distributed greedy:
// the coordinator over one in-process session per fetched cover, rounds
// inline. Query modes with extra greedy state (FM sketches, lazy
// evaluation, existing services, target coverage) run on the merged cover
// instead.
func (s *Sharded) answer(ctx context.Context, gs *gatherSet, p int, opts core.QueryOptions) (*core.QueryResult, error) {
	n := len(gs.own.Winners)
	if n == 0 {
		return nil, fmt.Errorf("shard: instance %d has no cluster representatives (no candidate sites?)", p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := min(opts.K, n)
	t0 := time.Now()
	defer func() { s.greedyNanos.Add(time.Since(t0).Nanoseconds()) }()

	pooled := !s.opts.Engine.DisablePooling
	var res tops.Result
	var err error
	var g *Gather
	switch {
	case opts.UseFM:
		res, err = tops.FMGreedy(gs.merged(), tops.FMGreedyOptions{K: k, F: opts.F, Seed: opts.Seed})
	case opts.Greedy.Lazy || len(opts.Greedy.InitialSites) > 0 || opts.Greedy.TargetCoverage > 0:
		gopts := opts.Greedy
		gopts.K = k
		if gopts.TargetCoverage > 0 {
			gopts.K = n
		}
		res, err = tops.IncGreedy(gs.merged(), gopts)
	default:
		if pooled {
			g = gatherPool.Get().(*Gather)
		} else {
			g = new(Gather)
		}
		hs := make([]Handle, len(gs.covers))
		for i, sc := range gs.covers {
			hs[i] = Handle{Shard: sc.shard, Session: openSession(sc.cs, sc.reps, gs.own.Masks[sc.shard], gs.own.MasksGI[sc.shard], pooled)}
		}
		res, err = g.Run(ctx, k, hs, Inline)
	}
	if err != nil {
		return nil, err
	}

	var out *core.QueryResult
	if pooled {
		out = core.AcquireQueryResult()
	} else {
		out = &core.QueryResult{}
	}
	out.EstimatedUtility = res.Utility
	out.EstimatedCovered = res.Covered
	out.InstanceUsed = p
	out.NumRepresentatives = n
	out.CoverHit, out.CoverRowsSwept = gs.swept == 0, gs.swept
	for _, gi := range res.Selected {
		node := gs.own.Winners[gi].Node
		out.Sites = append(out.Sites, node)
		out.SiteIDs = append(out.SiteIDs, s.sites.ID(node))
	}
	if g != nil && pooled {
		// res.Selected (aliasing g) is fully consumed above.
		gatherPool.Put(g)
	}
	return out, nil
}

// merged stitches the per-shard covers into one global CoverSets in the
// single-shard dense representative space. TC slices are borrowed until
// Finalize copies them (the shard covers are read-only for the query's
// lifetime); weights recompute through the same left-to-right summation
// the single-shard fill performs, so they carry identical bits.
func (gs *gatherSet) merged() *tops.CoverSets {
	m := 0
	for _, sc := range gs.covers {
		m = max(m, sc.cs.M)
	}
	cs := tops.NewCoverSets(len(gs.own.Winners), m)
	var g2l []int32
	for _, sc := range gs.covers {
		g2l = localToGlobal(g2l, sc.reps, gs.own.Masks[sc.shard], gs.own.MasksGI[sc.shard])
		for li, gi := range g2l {
			if gi >= 0 {
				trajs, scores := sc.cs.TC(int32(li))
				cs.SetTCArrays(gi, trajs, scores)
			}
		}
	}
	cs.Finalize()
	return cs
}

// QueryBatch answers many queries under one read lock, scattering once per
// (ladder instance, ψ fingerprint) group and fanning the gather greedies
// across Engine.BatchWorkers, mirroring engine.QueryBatch.
func (s *Sharded) QueryBatch(ctx context.Context, qs []core.QueryOptions) []engine.BatchItem {
	out := make([]engine.BatchItem, len(qs))
	if len(qs) == 0 {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.batches.Add(1)

	type groupKey struct {
		p  int
		fp uint64
	}
	groups := make(map[groupKey][]int)
	for i, q := range qs {
		if err := q.Pref.Validate(); err != nil {
			out[i].Err = s.accountErr(err)
			continue
		}
		if q.K <= 0 {
			out[i].Err = s.accountErr(fmt.Errorf("shard: k = %d must be positive", q.K))
			continue
		}
		key := groupKey{p: s.shards[0].eng.InstanceFor(q.Pref.Tau), fp: core.PrefFingerprint(q.Pref)}
		groups[key] = append(groups[key], i)
	}

	workers := s.opts.Engine.BatchWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for key, members := range groups {
		gs, err := s.scatter(ctx, key.p, qs[members[0]].Pref, s.ownership(key.p))
		if err != nil {
			for _, i := range members {
				out[i].Err = s.accountErr(err)
			}
			continue
		}
		for _, i := range members {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				out[i].Result, out[i].Err = s.answer(ctx, gs, key.p, qs[i])
				if out[i].Err == nil {
					s.batchQueries.Add(1)
				} else {
					s.accountErr(out[i].Err)
				}
			}(i)
		}
	}
	wg.Wait()
	return out
}

// Mutations mirror engine.Engine: one live write path (Apply), one
// transition function (applyMutation) that the replay path shares, typed
// methods that only build the wal.Mutation value. Everything runs under the
// write lock, so queries drain first and the ownership patch is fenced.
// With a WAL attached there is one record per logical mutation, independent
// of shard count, so a sharded primary's log replays identically into any
// follower topology.

// Apply is the live write path (see engine.Engine.Apply).
func (s *Sharded) Apply(m wal.Mutation) (wal.Applied, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink.Apply(m, s.applyMutation)
}

// applyMutation is the sharded transition function, reached by Apply (live)
// and ApplyRecord (replay) alike. The shards apply through their own
// engines' Apply (they never carry a log: the Sharded layer is the system
// of record). Caller holds the write lock.
func (s *Sharded) applyMutation(m wal.Mutation) ([]trajectory.ID, error) {
	var ids []trajectory.ID
	var err error
	if m.Kind.Routed() {
		err = s.routeSites(m)
	} else {
		ids, err = s.broadcast(m)
	}
	if err != nil {
		return nil, err
	}
	s.updates.Count(m)
	return ids, nil
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
		if _, err := s.shards[j].eng.Apply(sub); err != nil {
			if m.Kind == wal.KindAddSites {
				// Unreachable after checkSiteBatch; surface loudly if a shard
				// still disagrees, because state has diverged.
				return fmt.Errorf("shard: AddSites: shard %d rejected a pre-validated batch: %w", j, err)
			}
			return err
		}
		s.shards[j].updates.Add(1)
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
		a, err := sh.eng.Apply(m)
		if err == nil && j > 0 && !slices.Equal(a.IDs, ids) {
			err = fmt.Errorf("assigned ids %v, expected %v", a.IDs, ids)
		}
		if err != nil {
			if j > 0 {
				return nil, fmt.Errorf("shard: shard %d diverged during a trajectory broadcast: %w", j, err)
			}
			return nil, err
		}
		sh.updates.Add(1)
		ids = a.IDs
	}
	return ids, nil
}

// AddSite registers a new candidate site on its owning shard.
func (s *Sharded) AddSite(v roadnet.NodeID) error {
	_, err := s.Apply(wal.Mutation{Kind: wal.KindAddSite, Node: v})
	return err
}

// DeleteSite removes a candidate site from its owning shard.
func (s *Sharded) DeleteSite(v roadnet.NodeID) error {
	_, err := s.Apply(wal.Mutation{Kind: wal.KindDeleteSite, Node: v})
	return err
}

// AddSites registers a batch of candidate sites, all or nothing, each on
// its owning shard.
func (s *Sharded) AddSites(nodes []roadnet.NodeID) error {
	_, err := s.Apply(wal.Mutation{Kind: wal.KindAddSites, Nodes: nodes})
	return err
}

// AddTrajectory ingests one trajectory into every shard; all shards assign
// the same id.
func (s *Sharded) AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error) {
	a, err := s.Apply(wal.Mutation{Kind: wal.KindAddTrajectory, Traj: wal.FromTrajectory(tr)})
	if err != nil {
		return 0, err
	}
	return a.IDs[0], nil
}

// DeleteTrajectory removes one trajectory from every shard.
func (s *Sharded) DeleteTrajectory(tid trajectory.ID) error {
	_, err := s.Apply(wal.Mutation{Kind: wal.KindDeleteTrajectory, ID: tid})
	return err
}

// AddTrajectories ingests a batch of trajectories into every shard.
func (s *Sharded) AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	a, err := s.Apply(wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: wal.FromTrajectories(trs)})
	return a.IDs, err
}

// DeleteTrajectories removes a batch of trajectories from every shard.
func (s *Sharded) DeleteTrajectories(ids []trajectory.ID) error {
	_, err := s.Apply(wal.Mutation{Kind: wal.KindDeleteTrajectories, IDs: ids})
	return err
}

// Durability and replication surface, mirroring engine.Engine's: LSN,
// AttachWAL, ApplyRecord (replay without re-logging), Checkpoint.

// LSN reports the last applied write-ahead-log sequence number.
func (s *Sharded) LSN() uint64 { return s.sink.LSN() }

// Epoch reports the replication fencing token this engine last observed.
func (s *Sharded) Epoch() uint64 { return s.sink.Epoch() }

// RestoreEpoch stamps the epoch recovered from a checkpoint container.
// Load-time only, before any mutations or replay.
func (s *Sharded) RestoreEpoch(epoch uint64) { s.sink.RestoreEpoch(epoch) }

// BeginEpoch opens a new primary term (see engine.Engine.BeginEpoch).
func (s *Sharded) BeginEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.sink.BeginEpoch(epoch)
	return err
}

// AttachWAL connects the sharded engine to its log. The log must sit
// exactly at the engine's LSN; an empty log is based there.
func (s *Sharded) AttachWAL(l *wal.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink.Attach(l)
}

// ApplyRecord is the replay path — recovery and follower tailing: one
// logged mutation through applyMutation, without re-logging it. Records
// must arrive in LSN order.
func (s *Sharded) ApplyRecord(rec wal.Record) error {
	m, err := rec.Mutation()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sink.Replay(rec.LSN, m, s.applyMutation); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// Stats aggregates the scatter-gather engine's counters into the same shape
// the single-shard engine reports (the /statsz wire contract). Cover cache
// counters sum across shards.
func (s *Sharded) Stats() engine.Stats {
	st := engine.Stats{
		Queries:      s.queries.Load(),
		BatchQueries: s.batchQueries.Load(),
		Batches:      s.batches.Load(),
		LSN:          s.sink.LSN(),
		Epoch:        s.sink.Epoch(),
		Errors:       s.errorCount.Load(),
		Canceled:     s.canceled.Load(),
		CoverTime:    time.Duration(s.coverNanos.Load()),
		GreedyTime:   time.Duration(s.greedyNanos.Load()),
	}
	s.updates.Fill(&st)
	for _, sh := range s.shards {
		es := sh.eng.Stats()
		st.CoverHits += es.CoverHits
		st.CoverMisses += es.CoverMisses
		st.CoverRevalidated += es.CoverRevalidated
		st.CoverRowsSwept += es.CoverRowsSwept
		st.CoverEntries += es.CoverEntries
	}
	return st
}

// Stat is one shard's /statsz block: size, cover-cache effectiveness, and
// the scatter queue depth (fetches currently in flight on the shard).
type Stat struct {
	Shard            int    `json:"shard"`
	Sites            int    `json:"sites"`
	Scatters         uint64 `json:"scatter_calls"`
	QueueDepth       int64  `json:"queue_depth"`
	Updates          uint64 `json:"updates"`
	CoverHits        uint64 `json:"cover_hits"`
	CoverMisses      uint64 `json:"cover_misses"`
	CoverRevalidated uint64 `json:"cover_revalidated"`
	CoverRowsSwept   uint64 `json:"cover_rows_swept"`
	CoverEntries     int    `json:"cover_entries"`
}

// ShardStats reports per-shard counters (the /statsz "shards" array).
func (s *Sharded) ShardStats() []Stat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Stat, len(s.shards))
	for j, sh := range s.shards {
		es := sh.eng.Stats()
		out[j] = Stat{
			Shard:            j,
			Sites:            sh.inst.N(),
			Scatters:         sh.scatters.Load(),
			QueueDepth:       sh.inFlight.Load(),
			Updates:          sh.updates.Load(),
			CoverHits:        es.CoverHits,
			CoverMisses:      es.CoverMisses,
			CoverRevalidated: es.CoverRevalidated,
			CoverRowsSwept:   es.CoverRowsSwept,
			CoverEntries:     es.CoverEntries,
		}
	}
	return out
}
