package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// Options configures the members of a sharded topology.
type Options struct {
	// Shards is the number of shards N (>= 1); Of partitions the sites.
	Shards int
	// Build configures every per-shard index build. TauMin/TauMax are
	// derived from the full site set when zero, so all shards share one
	// ladder (and match a single-shard build of the same dataset).
	Build core.Options
	// Engine configures the per-shard engines (cover caching policy).
	Engine engine.Options
}

// Conn is one shard member as the routing core sees it. *Member is the
// in-process implementation; internal/router implements it over a member
// process's /v1/shard/meta|reps|cover and /v1/update endpoints.
type Conn interface {
	// Meta reports the member's topology parameters and site lists.
	Meta(ctx context.Context) (MemberMeta, error)
	// Reps lists ladder instance p's cluster representatives.
	Reps(ctx context.Context, p int) ([]core.RepInfo, error)
	// Cover answers a CoverRequest with a finalized, immutable cover and
	// the clusters its rows stand for.
	Cover(ctx context.Context, req *CoverRequest) (*tops.CoverSets, []core.ClusterID, error)
	// Update applies one mutation on the member.
	Update(ctx context.Context, u wal.Update) (wal.UpdateAck, error)
}

// ShardError is a failed Conn call, naming the shard it went to.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// ErrDiverged marks a trajectory mutation that committed on some shards
// and failed on a later one: the topology needs repair (replay from the
// failed shard's peers' logs) before its answers are trustworthy.
var ErrDiverged = errors.New("topology diverged")

// Sharded is the routing core of a site-partitioned topology: N members
// behind one query and update surface. Every shard clusters the whole road
// network, so a query reduces the members' representatives to cluster
// ownership (ReduceOwnership), fetches every owning member's masked cover
// at once, and answers through Answer — bit-exact against a single engine
// over the same dataset and history: same sites, dense site ids, and
// utility bits. Over in-process members it is the twin the benchmark
// ladder and the shard oracles run; over HTTP members it is the heart of
// internal/router.
//
// All methods are safe for concurrent use. Queries share the read lock;
// updates take the write lock, so a history of Query and Update calls has
// a single engine's sequential semantics (mutations sent to a member
// directly bypass it).
type Sharded struct {
	conns  []Conn
	ladder Ladder

	mu sync.RWMutex
	// sites is the global dense site-id mirror, so SiteIDs match the
	// single engine's; siteWarn is set when it could not be seeded exactly.
	sites    *SiteMirror
	siteWarn string
	// rungs caches, per ladder instance, the members' representative rows
	// and their cluster ownership. Queries fill it under the read lock; a
	// site update drops the ownership and the updated member's rows under
	// the write lock.
	rungs []atomic.Pointer[rung]
}

// rung is one ladder instance's cached reduce: rows[j] is member j's
// representatives (nil until fetched), own their ownership (nil until
// reduced). Immutable once stored.
type rung struct {
	rows [][]core.RepInfo
	own  *Ownership
}

// New adopts conns as shards 0..N-1 of one topology: every member must
// report this shard count, its own position, the partition rule and one
// ladder (a mixed topology would silently answer wrong), and the dense-id
// mirror is seeded from their site lists.
func New(ctx context.Context, conns []Conn) (*Sharded, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("shard: no members")
	}
	metas := make([]MemberMeta, len(conns))
	for j, c := range conns {
		m, err := c.Meta(ctx)
		if err != nil {
			return nil, &ShardError{Shard: j, Err: err}
		}
		metas[j] = m
	}
	s := &Sharded{conns: conns, ladder: metas[0].Ladder}
	for j, m := range metas {
		if err := s.CheckMember(j, m); err != nil {
			return nil, err
		}
	}
	s.rungs = make([]atomic.Pointer[rung], s.ladder.Rungs)
	s.sites, s.siteWarn = mirrorOf(metas)
	return s, nil
}

// Build builds every member of an opts.Shards-wide topology over the full
// dataset inst, in process, and returns the core over them.
func Build(inst *tops.Instance, opts Options) (*Sharded, error) {
	conns := make([]Conn, max(opts.Shards, 1))
	for j := range conns {
		m, err := BuildMember(inst, j, opts)
		if err != nil {
			return nil, err
		}
		conns[j] = m
	}
	return New(context.Background(), conns)
}

// CheckMember verifies that meta describes shard j of this topology: the
// check New runs on every member and a router runs before re-pointing a
// shard at another process.
func (s *Sharded) CheckMember(j int, m MemberMeta) error {
	switch {
	case m.Shards != len(s.conns) || m.Index != j:
		return fmt.Errorf("shard: position %d of a %d-shard topology points at shard %d of %d", j, len(s.conns), m.Index, m.Shards)
	case m.Partitioner != PartitionRule:
		return fmt.Errorf("shard: shard %d partitions sites by %q, not %q", j, m.Partitioner, PartitionRule)
	case m.Ladder != s.ladder:
		return fmt.Errorf("shard: shard %d ladder (%v) differs from shard 0's (%v)", j, m.Ladder, s.ladder)
	}
	return nil
}

// mirrorOf builds the global dense site-id mirror. When every member still
// knows the full build-time site order and the live site sets have not
// drifted from it, that order is exact — SiteIDs match a single engine
// with the same history. Otherwise (members recovered from checkpoints, or
// mutations applied before the core adopted them) the mirror concatenates
// the live per-shard lists: the nodes are right, but dense ids may differ
// from a single-engine history, which the warning says.
func mirrorOf(metas []MemberMeta) (*SiteMirror, string) {
	initial := metas[0].InitialSites
	live := make(map[roadnet.NodeID]bool)
	exact := len(initial) > 0
	for _, m := range metas {
		exact = exact && len(m.InitialSites) == len(initial)
		for _, v := range m.Sites {
			live[v] = true
		}
	}
	exact = exact && len(live) == len(initial)
	for _, v := range initial {
		exact = exact && live[v]
	}
	if exact {
		return NewSiteMirror(initial), ""
	}
	var concat []roadnet.NodeID
	for _, m := range metas {
		concat = append(concat, m.Sites...)
	}
	return NewSiteMirror(concat), "dense site ids seeded from per-shard concatenation (members past their build-time site set); ids may differ from a single-process history"
}

// fanOut runs call(0..n-1) at once, call(0) on the calling goroutine, and
// returns the first failure in index order.
func fanOut(n int, call func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(i)
		}()
	}
	if n > 0 {
		errs[0] = call(0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardErr wraps a failed call to shard j.
func shardErr(j int, err error) error {
	if err == nil {
		return nil
	}
	return &ShardError{Shard: j, Err: err}
}

// ownership derives (or returns the cached) cluster ownership of ladder
// instance p from every member's representatives, fetching only the rows
// not cached (after a site update: the updated member's). Caller holds the
// read lock.
func (s *Sharded) ownership(ctx context.Context, p int) (*Ownership, error) {
	r := rung{rows: make([][]core.RepInfo, len(s.conns))}
	if c := s.rungs[p].Load(); c != nil {
		if c.own != nil {
			return c.own, nil
		}
		copy(r.rows, c.rows)
	}
	var missing []int
	for j, row := range r.rows {
		if row == nil {
			missing = append(missing, j)
		}
	}
	err := fanOut(len(missing), func(i int) error {
		j := missing[i]
		row, err := s.conns[j].Reps(ctx, p)
		if row == nil {
			row = []core.RepInfo{} // fetched, and empty
		}
		r.rows[j] = row
		return shardErr(j, err)
	})
	if err != nil {
		return nil, err
	}
	r.own = ReduceOwnership(r.rows)
	s.rungs[p].Store(&r)
	return r.own, nil
}

// Query answers one TOPS query: the ownership reduce of its ladder
// instance, every owning member's masked cover fetched at once (one
// netclus_router_scatter_seconds observation), then Answer. The result is
// pooled; the caller may Release it.
func (s *Sharded) Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	if err := opts.Pref.Validate(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("shard: k = %d must be positive", opts.K)
	}
	pref, err := WirePrefOf(opts.Pref)
	if err != nil {
		return nil, err
	}
	p := core.InstanceForTau(s.ladder.TauMin, s.ladder.Gamma, s.ladder.Rungs, opts.Pref.Tau)
	s.mu.RLock()
	defer s.mu.RUnlock()
	own, err := s.ownership(ctx, p)
	if err != nil {
		return nil, err
	}
	var covers []Cover
	for j := range s.conns {
		if len(own.Masks[j]) > 0 {
			covers = append(covers, Cover{Shard: j})
		}
	}
	t0 := time.Now()
	err = fanOut(len(covers), func(i int) (err error) {
		c := &covers[i]
		c.CS, c.Reps, err = s.conns[c.Shard].Cover(ctx, &CoverRequest{P: p, Pref: pref, Mask: own.Masks[c.Shard]})
		return shardErr(c.Shard, err)
	})
	obs.RouterScatter.RecordSince(t0)
	if err != nil {
		return nil, err
	}
	return Answer(ctx, p, own, covers, s.sites, opts)
}

// Update applies one mutation: a site op on the member Of routes its node
// to, then the dense-id mirror follows and the ownership cache drops; a
// trajectory op on every member, member 0 first — it judges the request
// before any other commits. A member's failure comes back as a
// *ShardError; a failure past member 0 of a trajectory op wraps
// ErrDiverged. The ack is the owner's, or member 0's.
func (s *Sharded) Update(ctx context.Context, u wal.Update) (wal.UpdateAck, error) {
	kind, err := u.Kind()
	if err != nil {
		return wal.UpdateAck{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !kind.Routed() {
		var first wal.UpdateAck
		for j, c := range s.conns {
			ack, err := c.Update(ctx, u)
			if err == nil && j > 0 && trajID(ack) != trajID(first) {
				err = fmt.Errorf("assigned trajectory id %d, shard 0 assigned %d", trajID(ack), trajID(first))
			}
			switch {
			case err != nil && j == 0:
				return wal.UpdateAck{}, &ShardError{Shard: 0, Err: err}
			case err != nil:
				return wal.UpdateAck{}, fmt.Errorf("shard: %w: %s committed on shards [0,%d) but failed on shard %d: %v; repair the shard from its peers' WALs before trusting answers", ErrDiverged, u.Op, j, j, err)
			case j == 0:
				first = ack
			}
		}
		return first, nil
	}
	v := roadnet.NodeID(u.Node)
	j := Of(v, len(s.conns))
	ack, err := s.conns[j].Update(ctx, u)
	if err != nil {
		return wal.UpdateAck{}, &ShardError{Shard: j, Err: err}
	}
	if kind == wal.KindAddSite {
		s.sites.Add(v)
	} else {
		s.sites.Delete(v)
	}
	for p := range s.rungs {
		if c := s.rungs[p].Load(); c != nil {
			rows := slices.Clone(c.rows)
			rows[j] = nil
			s.rungs[p].Store(&rung{rows: rows})
		}
	}
	return ack, nil
}

// trajID is the trajectory id an ack reports, -1 for none.
func trajID(a wal.UpdateAck) int64 {
	if a.TrajectoryID == nil {
		return -1
	}
	return int64(*a.TrajectoryID)
}

// AddSite registers a new candidate site (an add_site Update).
func (s *Sharded) AddSite(v roadnet.NodeID) error {
	_, err := s.Update(context.Background(), wal.Update{Op: wal.KindAddSite.String(), Node: int64(v)})
	return err
}

// DeleteSite removes a candidate site (a delete_site Update).
func (s *Sharded) DeleteSite(v roadnet.NodeID) error {
	_, err := s.Update(context.Background(), wal.Update{Op: wal.KindDeleteSite.String(), Node: int64(v)})
	return err
}

// Status is the core's part of a router's /statsz.
type Status struct {
	Shards int `json:"shards"`
	// Sites is the live site count of the dense-id mirror; SiteIDWarning
	// says why the mirror could not be seeded exactly, when it could not.
	Sites         int    `json:"sites"`
	SiteIDWarning string `json:"site_id_warning,omitempty"`
	// OwnershipInstances lists the ladder instances whose cluster
	// ownership is cached.
	OwnershipInstances []int `json:"ownership_instances"`
}

// Status snapshots the core's state.
func (s *Sharded) Status() Status {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Status{Shards: len(s.conns), Sites: len(s.sites.Sites()), SiteIDWarning: s.siteWarn, OwnershipInstances: []int{}}
	for p := range s.rungs {
		if c := s.rungs[p].Load(); c != nil && c.own != nil {
			st.OwnershipInstances = append(st.OwnershipInstances, p)
		}
	}
	return st
}
