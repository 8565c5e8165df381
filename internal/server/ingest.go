package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"netclus/internal/ingest"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// handleIngest is POST /v1/ingest: an NDJSON stream of raw GPS traces in,
// an NDJSON stream of per-line verdicts out ({"line":N,"trajectory_id":I}
// or {"line":N,"code":C,"error":…}). The body is consumed incrementally —
// chunked transfer works — and verdicts flush as each batch commits, so a
// client sees acknowledgements while still sending.
//
// Role checks mirror /v1/update: followers answer 403 read_only, a fenced
// ex-primary answers 409 fenced. After the first verdict is on the wire
// the status is fixed at 200; a mid-stream failure is reported as a final
// error-envelope line ({"error":…,"code":…}, no "line" field) and the
// stream ends early.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		WriteError(w, http.StatusForbidden, CodeReadOnly, errors.New("read-only replica: stream traces to the primary (or promote this replica)"))
		return
	}
	if own := s.engineEpoch(); s.fencedBy.Load() > own {
		WriteError(w, http.StatusConflict, CodeFenced, fmt.Errorf("primary fenced: a peer opened epoch %d past ours (%d); this deposed node rejects writes", s.fencedBy.Load(), own))
		return
	}

	sink := ingest.SinkFunc(func(ctx context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
		applied, err := s.eng.Apply(wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: wal.FromTrajectories(trs)})
		if err != nil {
			return nil, err
		}
		// Semi-sync quorum, batch-grained: the whole window's verdicts
		// wait on the window's own LSN, amortising the round trip over
		// MaxBatch lines.
		if _, err := s.awaitQuorum(ctx, applied.LSN); err != nil {
			return nil, err
		}
		return applied.IDs, nil
	})

	rc := http.NewResponseController(w)
	// Verdicts stream back while the client is still sending the body.
	// Without full-duplex mode the HTTP/1.x server closes the request
	// body at the first response flush ("invalid Read on closed Body"
	// mid-feed); HTTP/2 is always full-duplex and returns nil here.
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
		WriteError(w, http.StatusInternalServerError, CodeInternal,
			fmt.Errorf("streaming ingest needs a full-duplex connection: %w", err))
		return
	}
	enc := json.NewEncoder(w)
	emitted := false
	// A window's verdicts go out together: one write burst and one flush
	// per committed window, not one per line.
	emit := func(vs []ingest.Verdict) error {
		if !emitted {
			w.Header().Set("Content-Type", "application/x-ndjson")
			emitted = true
		}
		for i := range vs {
			if err := enc.Encode(&vs[i]); err != nil {
				return err
			}
		}
		return rc.Flush()
	}

	err := s.ing.Run(r.Context(), r.Body, sink, emit)
	if err == nil {
		if !emitted {
			// Empty feed: answer with an empty NDJSON body, not a hang.
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		return
	}
	if r.Context().Err() != nil {
		return // client gone; nobody is reading
	}
	status, code := classifyIngestErr(err)
	if !emitted {
		WriteError(w, status, code, err)
		return
	}
	// Headers are on the wire: report the abort as a trailing error
	// envelope (distinguishable from verdicts by the missing "line").
	_ = enc.Encode(ErrorResponse{Error: err.Error(), Code: code})
	_ = rc.Flush()
}

func classifyIngestErr(err error) (int, string) {
	switch {
	case errors.Is(err, wal.ErrLogFailed):
		return http.StatusInternalServerError, CodeLogFailed
	case errors.Is(err, errQuorumLost):
		return http.StatusServiceUnavailable, CodeQuorumTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusBadRequest, CodeCanceled
	default:
		// Read failures and engine conflicts: the stream is the client's.
		return http.StatusBadRequest, CodeBadRequest
	}
}
