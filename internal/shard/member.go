package shard

import (
	"context"
	"fmt"
	"runtime"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// Member is one shard of a sharded topology: a full engine.Engine (WAL,
// snapshots, followers, promotion all unchanged) restricted to the sites
// Of routes here. It is the in-process Conn: Sharded runs directly over N
// of these, and the serving layer exposes the same four calls under
// /v1/shard/ and /v1/update when Options.Member is set, for
// internal/router's Conn to reach across processes. The read calls hold no
// per-query state, so a follower member serves them too.
//
// Site mutations are validated against ownership (admit): a node another
// shard owns is rejected, because applying it here would diverge this
// member's partition from the topology the routing core derives from Of.
type Member struct {
	*engine.Engine
	shards int
	index  int

	// initialSites is the full global site order at build time (nil on a
	// member recovered from a checkpoint, which no longer knows it); the
	// routing core seeds its dense-id mirror from it.
	initialSites []roadnet.NodeID
}

// NewMember wraps an engine as shard index of shards. initialSites, when
// known, is the full global site order the topology was built from
// (reported in Meta for the routing core's dense-id mirror).
func NewMember(eng *engine.Engine, shards, index int, initialSites []roadnet.NodeID) (*Member, error) {
	if eng == nil {
		return nil, fmt.Errorf("shard: member needs an engine")
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: member index %d outside [0, %d)", index, shards)
	}
	return newMember(eng, shards, index, initialSites), nil
}

func newMember(eng *engine.Engine, shards, index int, initialSites []roadnet.NodeID) *Member {
	m := &Member{
		Engine:       eng,
		shards:       shards,
		index:        index,
		initialSites: initialSites,
	}
	eng.SetAdmission(m.admit)
	return m
}

// BuildMember builds shard index of a shards-wide topology from the full
// dataset: the ladder range derives from the FULL site set (exactly as
// shard.Build does, so every member — and a single-process engine over the
// same dataset — shares one ladder), then only this member's shard
// instance is indexed.
func BuildMember(inst *tops.Instance, index int, opts Options) (*Member, error) {
	if inst == nil {
		return nil, fmt.Errorf("shard: nil instance")
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", opts.Shards)
	}
	if index < 0 || index >= opts.Shards {
		return nil, fmt.Errorf("shard: member index %d outside [0, %d)", index, opts.Shards)
	}
	if err := deriveLadderRange(inst, &opts.Build); err != nil {
		return nil, err
	}
	// The shard's instance: the shared graph, its own clone of the
	// trajectory store (so dynamic additions assign identical ids on every
	// shard), and the sites Of routes here, in their original relative
	// order.
	shardInst := &tops.Instance{G: inst.G, Trajs: inst.Trajs.Clone()}
	for _, v := range inst.Sites {
		if Of(v, opts.Shards) == index {
			shardInst.Sites = append(shardInst.Sites, v)
		}
	}
	bopts := opts.Build
	if bopts.Workers <= 0 {
		bopts.Workers = runtime.NumCPU()
	}
	idx, err := core.Build(shardInst, bopts)
	if err != nil {
		return nil, fmt.Errorf("shard: building member %d: %w", index, err)
	}
	eng, err := engine.New(idx, opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("shard: member %d engine: %w", index, err)
	}
	return newMember(eng, opts.Shards, index, append([]roadnet.NodeID(nil), inst.Sites...)), nil
}

// ShardIndex returns which shard of the topology this member is.
func (m *Member) ShardIndex() int { return m.index }

// Meta assembles the /v1/shard/meta response.
func (m *Member) Meta(context.Context) (MemberMeta, error) {
	idx := m.Engine.Index()
	return MemberMeta{
		Shards:       m.shards,
		Index:        m.index,
		Partitioner:  PartitionRule,
		Ladder:       ladderOf(idx),
		Sites:        append([]roadnet.NodeID{}, idx.TopsInstance().Sites...),
		InitialSites: m.initialSites,
		LSN:          m.LSN(),
		Epoch:        m.Epoch(),
	}, nil
}

// checkInstance rejects a ladder instance index this member does not hold.
func (m *Member) checkInstance(p int) error {
	if n := len(m.Engine.Index().Instances); p < 0 || p >= n {
		return fmt.Errorf("shard: instance %d outside ladder [0, %d)", p, n)
	}
	return nil
}

// Reps lists instance p's representatives for the ownership reduce
// (GET /v1/shard/reps).
func (m *Member) Reps(_ context.Context, p int) ([]core.RepInfo, error) {
	if err := m.checkInstance(p); err != nil {
		return nil, err
	}
	return m.RepInfos(p), nil
}

// Update applies one mutation through the engine's write path (admission,
// log and all) and acknowledges it.
func (m *Member) Update(_ context.Context, u wal.Update) (wal.UpdateAck, error) {
	mut, err := u.Mutation(m.Graph())
	if err != nil {
		return wal.UpdateAck{}, err
	}
	a, err := m.Apply(mut)
	if err != nil {
		return wal.UpdateAck{}, err
	}
	return wal.NewUpdateAck(a), nil
}

// admit is the engine's live-path admission check (engine.SetAdmission):
// a site mutation naming a node another shard owns must fail loudly, not
// silently split one logical partition across two shards. Sitting inside
// Engine.Apply, it covers every site kind by every route — the typed
// methods promoted from the embedded engine included. Replay skips it: the
// log holds only what a member admitted.
func (m *Member) admit(mut wal.Mutation) error {
	if !mut.Kind.Routed() {
		return nil
	}
	for _, v := range mut.Sites() {
		if j := Of(v, m.shards); j != m.index {
			return fmt.Errorf("shard: node %d belongs to shard %d, not this member (%d)", v, j, m.index)
		}
	}
	return nil
}

// Cover answers a CoverRequest: the masked cover of instance req.P under
// req.Pref, restricted to the clusters in req.Mask, and the clusters its
// rows stand for — served from the member's cover cache like any other
// cover fetch. The cover is finalized and immutable.
func (m *Member) Cover(ctx context.Context, req *CoverRequest) (*tops.CoverSets, []core.ClusterID, error) {
	if err := m.checkInstance(req.P); err != nil {
		return nil, nil, err
	}
	for i, ci := range req.Mask {
		if ci < 0 || (i > 0 && ci <= req.Mask[i-1]) {
			return nil, nil, fmt.Errorf("shard: mask must be strictly ascending non-negative cluster ids")
		}
	}
	pref, err := req.Pref.Preference()
	if err != nil {
		return nil, nil, err
	}
	if err := pref.Validate(); err != nil {
		return nil, nil, err
	}
	cs, reps, _, err := m.CoverMasked(ctx, req.P, pref, req.Mask)
	return cs, reps, err
}
