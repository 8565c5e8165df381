package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Stable machine-readable error codes: the "code" field of every error
// envelope (see ErrorResponse). Clients branch on these, never on the
// human-readable message. API.md documents where each one appears.
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTooLarge         = "too_large"
	CodeTimeout          = "timeout"
	CodeCanceled         = "canceled"
	CodeConflict         = "conflict"
	CodeReadOnly         = "read_only"
	CodeFenced           = "fenced"
	CodeDraining         = "draining"
	CodeLogCompacted     = "log_compacted"
	CodeNeedBootstrap    = "need_bootstrap"
	CodeQuorumTimeout    = "quorum_timeout"
	CodeTailStalled      = "tail_stalled"
	CodeLogFailed        = "log_failed"
	CodeInternal         = "internal"
	// The router tier's own cases: a shard with no reachable member within
	// the attempt budget (retryable once a follower is promoted or the shard
	// re-pointed), an endpoint only a single-process topology serves, and a
	// broadcast mutation applied on some shards and failed on another (the
	// topology needs repair from the failed shard's WAL position).
	CodeShardUnavailable = "shard_unavailable"
	CodeNotImplemented   = "not_implemented"
	CodeTopologyDiverged = "topology_diverged"
)

// retryAfterSeconds is the Retry-After hint attached to every 503: the
// conditions behind them (drain, quorum wait, replica catch-up) resolve on
// the order of a second, not minutes.
const retryAfterSeconds = "1"

// ackTracker records each follower's durable replication position —
// reported as id=/acked= query params piggybacked on /v1/log tail
// requests — and wakes quorum waiters whenever a position advances.
type ackTracker struct {
	mu   sync.Mutex
	acks map[string]followerAck
	// wake is closed and replaced on every recorded ack, the same
	// level-triggered broadcast shape as wal.Log's commit signal.
	wake chan struct{}
}

type followerAck struct {
	lsn  uint64
	seen time.Time
}

func newAckTracker() *ackTracker {
	return &ackTracker{acks: make(map[string]followerAck), wake: make(chan struct{})}
}

func (a *ackTracker) record(id string, lsn uint64) {
	a.mu.Lock()
	prev := a.acks[id]
	if lsn < prev.lsn {
		lsn = prev.lsn // a durable position never moves backwards
	}
	a.acks[id] = followerAck{lsn: lsn, seen: time.Now()}
	close(a.wake)
	a.wake = make(chan struct{})
	a.mu.Unlock()
}

// quorumLSN returns the LSN the n-th most advanced follower has durably
// acknowledged — the highest LSN known replicated to at least n machines —
// or 0 when fewer than n followers have ever reported.
func (a *ackTracker) quorumLSN(n int) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.quorumLSNLocked(n)
}

func (a *ackTracker) quorumLSNLocked(n int) uint64 {
	if n <= 0 || len(a.acks) < n {
		return 0
	}
	lsns := make([]uint64, 0, len(a.acks))
	for _, ack := range a.acks {
		lsns = append(lsns, ack.lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns[n-1]
}

// await blocks until n followers have durably acknowledged lsn, reporting
// success; the timeout, the request context, or a server drain ends the
// wait early.
func (a *ackTracker) await(ctx context.Context, n int, lsn uint64, timeout time.Duration, drain <-chan struct{}) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		a.mu.Lock()
		ok := a.quorumLSNLocked(n) >= lsn
		wake := a.wake
		a.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-wake:
		case <-t.C:
			return false
		case <-ctx.Done():
			return false
		case <-drain:
			return false
		}
	}
}

// errQuorumLost marks a write that applied (and logged) locally but did not
// gather its follower quorum in time.
var errQuorumLost = errors.New("quorum not reached")

// awaitQuorum is the semi-sync wait of every write path: on a log-serving
// primary with Options.Quorum set it holds the acknowledgement of the write
// logged at lsn until that many followers have durably persisted past it,
// and reports true. Without a quorum configured it returns (false, nil) at
// once. A wait ended by the timeout, ctx or a drain wraps errQuorumLost.
func (s *Server) awaitQuorum(ctx context.Context, lsn uint64) (bool, error) {
	if s.opts.Quorum <= 0 || s.opts.Log == nil {
		return false, nil
	}
	if !s.acks.await(ctx, s.opts.Quorum, lsn, s.opts.QuorumTimeout, s.drainSignal()) {
		return false, fmt.Errorf("applied locally at LSN %d but %d follower ack(s) did not arrive within %v: %w",
			lsn, s.opts.Quorum, s.opts.QuorumTimeout, errQuorumLost)
	}
	return true, nil
}

// snapshot returns the per-follower ack table for /v1/replication, sorted
// by follower id for stable output.
func (a *ackTracker) snapshot(head uint64) []FollowerAckStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FollowerAckStatus, 0, len(a.acks))
	for id, ack := range a.acks {
		var lag uint64
		if head > ack.lsn {
			lag = head - ack.lsn
		}
		out = append(out, FollowerAckStatus{
			ID:               id,
			AckedLSN:         ack.lsn,
			Lag:              lag,
			SecondsSinceSeen: time.Since(ack.seen).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FollowerAckStatus is one follower's row in GET /v1/replication.
type FollowerAckStatus struct {
	ID       string `json:"id"`
	AckedLSN uint64 `json:"acked_lsn"`
	// Lag is the primary head minus the follower's durable position.
	Lag              uint64  `json:"lag_records"`
	SecondsSinceSeen float64 `json:"seconds_since_seen"`
}

// QuorumConfig mirrors the server's semi-sync replication settings.
type QuorumConfig struct {
	Required       int     `json:"required"`
	TimeoutSeconds float64 `json:"timeout_seconds"`
}

// replicationResponse is GET /v1/replication: the replication status
// resource, for operators and tooling. The tail protocol itself carries the
// head LSN and epoch a follower needs as X-Netclus-* headers on /v1/log.
type replicationResponse struct {
	// Role is "primary" or "follower" (a promoted follower reports
	// primary).
	Role     string `json:"role"`
	ReadOnly bool   `json:"read_only"`
	// Epoch is the fencing token of the primary term this node last
	// observed.
	Epoch uint64 `json:"epoch"`
	// FencedBy reports the highest epoch a peer has presented when it
	// exceeds ours: this node is deposed and rejects writes.
	FencedBy uint64 `json:"fenced_by,omitempty"`
	FirstLSN uint64 `json:"first_lsn"`
	HeadLSN  uint64 `json:"head_lsn"`
	// CommittedLSN is the highest LSN the configured quorum has durably
	// acknowledged; equal to HeadLSN when no quorum is configured.
	CommittedLSN uint64              `json:"committed_lsn"`
	Quorum       *QuorumConfig       `json:"quorum,omitempty"`
	Followers    []FollowerAckStatus `json:"followers,omitempty"`
	// Follower is this node's own tailing status when it is (or was) a
	// replica.
	Follower *ReplicationStatus `json:"follower,omitempty"`
}

func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	resp := replicationResponse{
		Role:     "primary",
		ReadOnly: s.readOnly.Load(),
		Epoch:    s.engineEpoch(),
	}
	if resp.ReadOnly {
		resp.Role = "follower"
	}
	if peer := s.fencedBy.Load(); peer > resp.Epoch {
		resp.FencedBy = peer
	}
	if s.opts.Log != nil {
		resp.FirstLSN = s.opts.Log.FirstLSN()
		resp.HeadLSN = s.opts.Log.HeadLSN()
	}
	resp.CommittedLSN = resp.HeadLSN
	if s.opts.Quorum > 0 {
		resp.Quorum = &QuorumConfig{
			Required:       s.opts.Quorum,
			TimeoutSeconds: s.opts.QuorumTimeout.Seconds(),
		}
		resp.CommittedLSN = s.acks.quorumLSN(s.opts.Quorum)
	}
	resp.Followers = s.acks.snapshot(resp.HeadLSN)
	if s.opts.Replication != nil {
		st := s.opts.Replication()
		resp.Follower = &st
		// A log-less follower still has a replication position: the LSN it
		// has applied from the stream.
		if resp.ReadOnly && resp.HeadLSN == 0 {
			resp.HeadLSN = st.LSN
			resp.CommittedLSN = st.LSN
		}
	}
	WriteJSON(w, resp)
}

// promoteResponse acknowledges POST /v1/promote.
type promoteResponse struct {
	OK    bool   `json:"ok"`
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	LSN   uint64 `json:"lsn,omitempty"`
}

// handlePromote turns this read-only follower into the primary: the
// Options.Promote callback stops tailing, replays any local tail, and
// opens a new epoch; on success the server leaves read-only mode. The
// promoteMu serializes concurrent promote requests (the second sees
// read_only already cleared and answers 409).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		WriteError(w, http.StatusConflict, CodeConflict, errors.New("already primary"))
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	epoch, err := s.opts.Promote(ctx)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("promotion failed: %w", err))
		return
	}
	s.readOnly.Store(false)
	resp := promoteResponse{OK: true, Role: "primary", Epoch: epoch}
	if s.opts.Log != nil {
		resp.LSN = s.opts.Log.HeadLSN()
	}
	WriteJSON(w, resp)
}

// followRequest is POST /v1/follow: re-point this follower at a new
// primary without a restart.
type followRequest struct {
	Primary string `json:"primary"`
}

// followResponse acknowledges POST /v1/follow.
type followResponse struct {
	OK      bool   `json:"ok"`
	Primary string `json:"primary"`
}

// handleFollow re-points a running follower's tail loop at a new primary
// (Options.Retarget, typically Follower.Retarget) — the failover path
// after a peer's promotion: the surviving followers re-point at the
// promoted node instead of restarting with a new -follow. Only a node
// still in the follower role re-points; a promoted primary answers 409.
func (s *Server) handleFollow(w http.ResponseWriter, r *http.Request) {
	if !s.readOnly.Load() {
		WriteError(w, http.StatusConflict, CodeConflict, errors.New("not a follower: this node is the primary"))
		return
	}
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var req followRequest
	err := StrictUnmarshal(body.Bytes(), &req)
	PutBuf(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if err := s.opts.Retarget(req.Primary); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	WriteJSON(w, followResponse{OK: true, Primary: req.Primary})
}

// noteFencing latches the highest epoch any peer has presented on the
// replication surface. Once it exceeds the engine's own epoch this node
// has been deposed: /v1/update answers 409 fenced until (and unless) its
// own epoch overtakes again via promotion.
func (s *Server) noteFencing(peer uint64) {
	for {
		cur := s.fencedBy.Load()
		if peer <= cur || s.fencedBy.CompareAndSwap(cur, peer) {
			return
		}
	}
}

// engineEpoch reads the served engine's fencing token when it exposes one
// (engine.Engine and shard.Member do).
func (s *Server) engineEpoch() uint64 {
	if ep, ok := s.eng.(interface{ Epoch() uint64 }); ok {
		return ep.Epoch()
	}
	return 0
}
