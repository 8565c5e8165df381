package server

import (
	"fmt"
	"net/http"
	"strconv"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/shard"
	"netclus/internal/wal"
)

// MemberEngine is the per-shard surface the serving layer exposes under
// /v1/shard/ when Options.Member is set: a shard.Conn (shard.Member is one)
// that knows its own position. The read endpoints hold nothing between
// requests — a follower member serves them too, which is what lets the
// router retry a query against a shard's replica before any promotion
// happens. Conn's Update is not served from here: /v1/update reaches the
// member through the engine's own write path.
type MemberEngine interface {
	shard.Conn
	ShardIndex() int
}

// handleShardMeta serves GET /v1/shard/meta.
func (s *Server) handleShardMeta(w http.ResponseWriter, r *http.Request) {
	meta, err := s.opts.Member.Meta(r.Context())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	WriteJSON(w, meta)
}

// repsResponse is GET /v1/shard/reps?p=.
type repsResponse struct {
	P    int            `json:"p"`
	Reps []core.RepInfo `json:"reps"`
}

func (s *Server) handleShardReps(w http.ResponseWriter, r *http.Request) {
	p, err := strconv.Atoi(r.URL.Query().Get("p"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("p must be a ladder instance index"))
		return
	}
	reps, err := s.opts.Member.Reps(r.Context(), p)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	WriteJSON(w, repsResponse{P: p, Reps: reps})
}

// handleShardCover serves POST /v1/shard/cover: the member's masked cover
// for one routed query, in shard's binary cover layout.
func (s *Server) handleShardCover(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var req shard.CoverRequest
	err := wal.StrictUnmarshal(body.Bytes(), &req)
	PutBuf(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
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
		status, code := QueryStatus(err)
		WriteError(w, status, code, err)
		return
	}
	buf := getBuf()
	buf.Write(shard.AppendCover(buf.AvailableBuffer(), cs, reps))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(buf.Bytes())
	PutBuf(buf)
}
