package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/shard"
)

// MemberEngine is the per-shard round-protocol surface the serving layer
// exposes under /v1/shard/ when Options.Member is set (implemented by
// shard.Member). The endpoints are read-only over index state — a
// follower member serves them too, which is what lets the router retry a
// query against a shard's replica before any promotion happens.
type MemberEngine interface {
	Meta() shard.MemberMeta
	Reps(p int) ([]core.RepInfo, error)
	Owner(v int64) int
	Start(ctx context.Context, req *shard.StartRequest) (*shard.RoundReply, error)
	Step(req *shard.StepRequest) (*shard.RoundReply, error)
	End(qid string)
}

// handleShardMeta serves GET /v1/shard/meta.
func (s *Server) handleShardMeta(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.opts.Member.Meta())
}

// repsResponse is GET /v1/shard/reps?p=.
type repsResponse struct {
	P    int            `json:"p"`
	Reps []core.RepInfo `json:"reps"`
}

func (s *Server) handleShardReps(w http.ResponseWriter, r *http.Request) {
	p, err := strconv.Atoi(r.URL.Query().Get("p"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("p must be a ladder instance index"))
		return
	}
	reps, err := s.opts.Member.Reps(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	writeJSON(w, repsResponse{P: p, Reps: reps})
}

// ownerResponse is GET /v1/shard/owner?node=.
type ownerResponse struct {
	Node  int64 `json:"node"`
	Shard int   `json:"shard"`
}

func (s *Server) handleShardOwner(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.ParseInt(r.URL.Query().Get("node"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("node must be an integer node id"))
		return
	}
	writeJSON(w, ownerResponse{Node: node, Shard: s.opts.Member.Owner(node)})
}

func (s *Server) handleShardStart(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req shard.StartRequest
	err := strictUnmarshal(body.Bytes(), &req)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	// The trace id minted (or forwarded) at the router edge arrives here on
	// the scatter request: logging it is what makes one distributed query
	// joinable across the router's and every member's logs.
	s.log.Debug("shard query start",
		"trace_id", obs.TraceID(ctx), "qid", req.QID, "p", req.P, "shard", s.opts.Member.Meta().Index)
	reply, err := s.opts.Member.Start(ctx, &req)
	if err != nil {
		status, code := queryStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, reply)
}

func (s *Server) handleShardStep(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req shard.StepRequest
	err := strictUnmarshal(body.Bytes(), &req)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	reply, err := s.opts.Member.Step(&req)
	if err != nil {
		// An unknown session is a state conflict (expired, or this process
		// is not the one the query started on — a failover happened); the
		// gather restarts the query from scratch.
		if errors.Is(err, shard.ErrUnknownSession) {
			writeError(w, http.StatusConflict, CodeConflict, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	writeJSON(w, reply)
}

func (s *Server) handleShardEnd(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req shard.EndRequest
	err := strictUnmarshal(body.Bytes(), &req)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.opts.Member.End(req.QID)
	writeJSON(w, struct {
		OK bool `json:"ok"`
	}{OK: true})
}
