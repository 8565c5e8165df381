package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/shard"
	"netclus/internal/tops"
)

// MemberEngine is the per-shard surface the serving layer exposes under
// /v1/shard/ when Options.Member is set (implemented by shard.Member). The
// endpoints are read-only over index state and hold nothing between
// requests — a follower member serves them too, which is what lets the
// router retry a query against a shard's replica before any promotion
// happens.
type MemberEngine interface {
	Meta() shard.MemberMeta
	ShardIndex() int
	Reps(p int) ([]core.RepInfo, error)
	Owner(v roadnet.NodeID) int
	Cover(ctx context.Context, req *shard.CoverRequest) (*tops.CoverSets, []core.ClusterID, error)
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
	if node < 0 || node > math.MaxInt32 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("node %d outside int32 range", node))
		return
	}
	writeJSON(w, ownerResponse{Node: node, Shard: s.opts.Member.Owner(roadnet.NodeID(node))})
}

// handleShardCover serves POST /v1/shard/cover: the member's masked cover
// for one routed query, in shard's binary cover layout.
func (s *Server) handleShardCover(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req shard.CoverRequest
	err := strictUnmarshal(body.Bytes(), &req)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	// The trace id minted (or forwarded) at the router edge arrives here on
	// the cover fetch: logging it is what makes one distributed query
	// joinable across the router's and every member's logs.
	s.log.Debug("shard cover",
		"trace_id", obs.TraceID(ctx), "p", req.P, "mask", len(req.Mask), "shard", s.opts.Member.ShardIndex())
	cs, reps, err := s.opts.Member.Cover(ctx, &req)
	if err != nil {
		status, code := queryStatus(err)
		writeError(w, status, code, err)
		return
	}
	buf := getBuf()
	buf.Write(shard.AppendCover(buf.AvailableBuffer(), cs, reps))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}
