package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// Member is one shard of a router-fronted topology running in its own
// process: a full engine.Engine (WAL, snapshots, followers, promotion all
// unchanged) restricted to the sites its partitioner routes here, plus a
// qid-keyed table of the query sessions (session.go) that the round
// protocol (protocol.go) addresses. The serving layer exposes it under
// /v1/shard/ when Options.Member is set; internal/router speaks the
// protocol against N of these.
//
// Site mutations are validated against ownership (admit): a node another
// shard owns is rejected, because applying it here would diverge this
// member's partition from the topology the router derives from the
// partitioner.
type Member struct {
	*engine.Engine
	part  Partitioner
	index int

	// initialSites is the full global site order at build time (nil on a
	// member recovered from a checkpoint, which no longer knows it); the
	// router seeds its dense-id mirror from it.
	initialSites []roadnet.NodeID

	sesMu     sync.Mutex
	sessions  map[string]*memberSession
	lastSweep time.Time
	now       func() time.Time // the session clock; tests substitute it
}

// sessionTTL expires sessions a crashed or partitioned gather never ended.
const sessionTTL = 2 * time.Minute

// ErrUnknownSession reports a step or end against a session this member
// does not hold (expired, never started here, or started on a different
// process after a failover) — the gather aborts and restarts the query.
var ErrUnknownSession = errors.New("shard: unknown query session")

// NewMember wraps an engine as shard index of shards under the named
// partitioner. initialSites, when known, is the full global site order
// the topology was built from (reported in Meta for the router's dense-id
// mirror).
func NewMember(eng *engine.Engine, shards, index int, partitioner string, initialSites []roadnet.NodeID) (*Member, error) {
	if eng == nil {
		return nil, fmt.Errorf("shard: member needs an engine")
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: member index %d outside [0, %d)", index, shards)
	}
	part, err := NewPartitioner(partitioner, shards, eng.Graph())
	if err != nil {
		return nil, err
	}
	return newMember(eng, part, index, initialSites), nil
}

func newMember(eng *engine.Engine, part Partitioner, index int, initialSites []roadnet.NodeID) *Member {
	m := &Member{
		Engine:       eng,
		part:         part,
		index:        index,
		initialSites: initialSites,
		sessions:     make(map[string]*memberSession),
		now:          time.Now,
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
	part, err := NewPartitioner(opts.Partitioner, opts.Shards, inst.G)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= opts.Shards {
		return nil, fmt.Errorf("shard: member index %d outside [0, %d)", index, opts.Shards)
	}
	if err := deriveLadderRange(inst, &opts.Build); err != nil {
		return nil, err
	}
	insts := shardInstances(part, inst)
	bopts := opts.Build
	if bopts.Workers <= 0 {
		bopts.Workers = runtime.NumCPU()
	}
	idx, err := core.Build(insts[index], bopts)
	if err != nil {
		return nil, fmt.Errorf("shard: building member %d: %w", index, err)
	}
	eng, err := engine.New(idx, opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("shard: member %d engine: %w", index, err)
	}
	return newMember(eng, part, index, append([]roadnet.NodeID(nil), inst.Sites...)), nil
}

// ShardIndex returns which shard of the topology this member is.
func (m *Member) ShardIndex() int { return m.index }

// Meta assembles the /v1/shard/meta response.
func (m *Member) Meta() MemberMeta {
	idx := m.Engine.Index()
	return MemberMeta{
		Shards:       m.part.Shards(),
		Index:        m.index,
		Partitioner:  m.part.Name(),
		Ladder:       ladderOf(idx),
		Sites:        append([]roadnet.NodeID{}, idx.TopsInstance().Sites...),
		InitialSites: m.initialSites,
		LSN:          m.LSN(),
		Epoch:        m.Epoch(),
	}
}

// checkInstance rejects a ladder instance index this member does not hold.
func (m *Member) checkInstance(p int) error {
	if n := len(m.Engine.Index().Instances); p < 0 || p >= n {
		return fmt.Errorf("shard: instance %d outside ladder [0, %d)", p, n)
	}
	return nil
}

// Reps lists instance p's representatives for the router's ownership
// reduce (GET /v1/shard/reps).
func (m *Member) Reps(p int) ([]core.RepInfo, error) {
	if err := m.checkInstance(p); err != nil {
		return nil, err
	}
	return m.RepInfos(p), nil
}

// Owner reports the shard the partitioner routes node v to — the router's
// remote routing oracle for partitioners it cannot evaluate without the
// graph (grid).
func (m *Member) Owner(v int64) int { return m.part.Shard(roadnet.NodeID(v)) }

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
		if j := m.part.Shard(v); j != m.index {
			return fmt.Errorf("shard: node %d belongs to shard %d, not this member (%d)", v, j, m.index)
		}
	}
	return nil
}

// Start opens a query session: fill the masked cover for (p, ψ), open the
// round state over it, and answer the round-0 candidate. The cover
// snapshot is immutable (finalized CoverSets), so the session stays
// consistent even if mutations land between rounds.
func (m *Member) Start(ctx context.Context, req *StartRequest) (*RoundReply, error) {
	if req.QID == "" {
		return nil, fmt.Errorf("shard: start needs a qid")
	}
	if err := m.checkInstance(req.P); err != nil {
		return nil, err
	}
	if len(req.Mask) != len(req.MaskGlobal) {
		return nil, fmt.Errorf("shard: mask (%d) and mask_global (%d) lengths differ", len(req.Mask), len(req.MaskGlobal))
	}
	for i := 1; i < len(req.Mask); i++ {
		if req.Mask[i] <= req.Mask[i-1] {
			return nil, fmt.Errorf("shard: mask must be strictly ascending")
		}
	}
	pref, err := req.Pref.Preference()
	if err != nil {
		return nil, err
	}
	if err := pref.Validate(); err != nil {
		return nil, err
	}
	cs, reps, _, err := m.CoverMasked(ctx, req.P, pref, req.Mask)
	if err != nil {
		return nil, err
	}
	ses := openSession(cs, reps, req.Mask, req.MaskGlobal, false)
	ses.touched = m.now()
	reply := &RoundReply{M: cs.M}
	if c, ok := ses.step(-1, nil); ok {
		reply.Cand = &c
	}
	m.sesMu.Lock()
	m.sweepLocked()
	m.sessions[req.QID] = ses
	m.sesMu.Unlock()
	return reply, nil
}

// Step advances a session one round.
func (m *Member) Step(req *StepRequest) (*RoundReply, error) {
	m.sesMu.Lock()
	ses := m.sessions[req.QID]
	m.sesMu.Unlock()
	if ses == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, req.QID)
	}
	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.touched = m.now()
	reply := &RoundReply{}
	if c, ok := ses.step(req.WinnerGI, req.Deltas); ok {
		reply.Cand = &c
	}
	return reply, nil
}

// End releases a session. Missing sessions are fine: End is best-effort
// cleanup from the gather (expiry handles the rest).
func (m *Member) End(qid string) {
	m.sesMu.Lock()
	delete(m.sessions, qid)
	m.sesMu.Unlock()
}

// sweepLocked drops sessions idle past sessionTTL, at most once per 30s.
func (m *Member) sweepLocked() {
	now := m.now()
	if now.Sub(m.lastSweep) < 30*time.Second {
		return
	}
	m.lastSweep = now
	for qid, ses := range m.sessions {
		ses.mu.Lock()
		stale := now.Sub(ses.touched) > sessionTTL
		ses.mu.Unlock()
		if stale {
			delete(m.sessions, qid)
		}
	}
}
