// Package ingest turns raw GPS streams into §6 trajectory mutations.
//
// The paper's pipeline (Fig. 2) begins with raw traces map-matched onto
// the road network before any TOPS processing. This package is the live
// version of that stage: it decodes an NDJSON stream (one trace or
// trace-fragment per line), fans the CPU-bound map-matching across a
// small worker pool, assembles the matched walks with trajectory.New,
// and applies them in batches through a Sink — the engine's
// AddTrajectories write path, so every ingested trajectory is WAL-logged,
// quorum-ackable, and replicated exactly like a hand-posted update.
//
// Verdicts stream back one per input line, in input order. Batch
// boundaries are deterministic: a window flushes when MaxBatch lines have
// accumulated or the stream ends, never on a timer, so the same feed
// always produces the same sequence of AddTrajectories mutations (the
// ingest differential test depends on this).
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/mapmatch"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/spatial"
	"netclus/internal/trajectory"
)

// Verdict codes, one per way a line can fail. A line with an empty code
// was matched and applied.
const (
	CodeBadJSON       = "bad_json"        // malformed JSON, unknown fields, trailing garbage
	CodeBadPoint      = "bad_point"       // non-finite or incomplete coordinates
	CodeEmptyTrace    = "empty_trace"     // no points
	CodeTooManyPoints = "too_many_points" // over MaxPointsPerTrace
	CodeLineTooLong   = "line_too_long"   // over MaxLineBytes
	CodeNoMatch       = "no_match"        // matcher found no feasible walk
	CodeApplyFailed   = "apply_failed"    // engine rejected the batch
)

// Options tunes the ingestion pipeline.
type Options struct {
	// Workers bounds the matching fan-out. Matching is CPU-bound and
	// embarrassingly parallel per trace; defaults to GOMAXPROCS capped
	// at 8 (the apply path serialises on the engine write lock anyway).
	Workers int
	// MaxBatch is the window size: matched trajectories per
	// AddTrajectories mutation. Smaller windows ack sooner, larger ones
	// amortise the WAL commit. Default 64.
	MaxBatch int
	// MaxPointsPerTrace rejects absurd lines early. Default 16384.
	MaxPointsPerTrace int
	// MaxLineBytes bounds one NDJSON line. Default 1 MiB.
	MaxLineBytes int
	// Match configures the per-worker HMM matchers.
	Match mapmatch.Config
	// OriginLat/OriginLon anchor geo.ProjectLatLon for lines that carry
	// lat/lon instead of planar x/y coordinates.
	OriginLat, OriginLon float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxPointsPerTrace <= 0 {
		o.MaxPointsPerTrace = 1 << 14
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	return o
}

// Sink receives batches of matched trajectories. Implementations apply
// them through the engine write path (and may hold the ack for quorum).
type Sink interface {
	AddTrajectories(ctx context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ctx context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error)

// AddTrajectories calls f.
func (f SinkFunc) AddTrajectories(ctx context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	return f(ctx, trs)
}

// Verdict is the per-line outcome streamed back to the client. Exactly
// one of TrajectoryID (success) or Code (failure) is set.
type Verdict struct {
	Line         int            `json:"line"`
	ID           string         `json:"id,omitempty"` // echo of the client's trace tag
	TrajectoryID *trajectory.ID `json:"trajectory_id,omitempty"`
	Code         string         `json:"code,omitempty"`
	Err          string         `json:"error,omitempty"`
}

// Stats is a point-in-time snapshot of the pipeline counters.
type Stats struct {
	TracesIn uint64 `json:"traces_in"`
	Matched  uint64 `json:"matched"`
	Rejected uint64 `json:"rejected"`
	Points   uint64 `json:"points"`
	Batches  uint64 `json:"batches"`
	// MatchMillis is CPU time summed across workers, not wall clock.
	MatchMillis uint64 `json:"match_ms"`
	ApplyMillis uint64 `json:"apply_ms"`
}

// Ingestor owns the matcher pool and counters for one serving process.
// It is safe for concurrent Run calls: matchers are checked in and out of
// the pool, and counters are atomic.
type Ingestor struct {
	opts Options
	g    *roadnet.Graph
	pool chan *mapmatch.Matcher

	tracesIn, matched, rejected atomic.Uint64
	points, batches             atomic.Uint64
	matchNanos, applyNanos      atomic.Uint64
}

// New builds an ingestor over g. The spatial grid is built once and
// shared read-only by all workers; each worker owns a matcher (mutable
// Dijkstra scratch and lattice).
func New(g *roadnet.Graph, opts Options) *Ingestor {
	opts = opts.withDefaults()
	grid := spatial.NewGrid(g, 0)
	pool := make(chan *mapmatch.Matcher, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		pool <- mapmatch.NewMatcherWithIndex(g, grid, opts.Match)
	}
	return &Ingestor{opts: opts, g: g, pool: pool}
}

// Options reports the resolved (defaulted) options.
func (in *Ingestor) Options() Options { return in.opts }

// Stats snapshots the counters.
func (in *Ingestor) Stats() Stats {
	return Stats{
		TracesIn:    in.tracesIn.Load(),
		Matched:     in.matched.Load(),
		Rejected:    in.rejected.Load(),
		Points:      in.points.Load(),
		Batches:     in.batches.Load(),
		MatchMillis: in.matchNanos.Load() / 1e6,
		ApplyMillis: in.applyNanos.Load() / 1e6,
	}
}

// item carries one input line through the window.
type item struct {
	line  int
	id    string
	trace trajectory.GPSTrace
	tr    *trajectory.Trajectory
	tid   trajectory.ID
	ok    bool
	code  string
	err   string
}

// Run decodes the NDJSON stream from r, matches and applies it through
// sink, and calls emit once per non-blank input line, in input order.
// It returns a non-nil error only for stream-level failures (unreadable
// body, cancelled context, emit failure, or an engine apply error after
// the affected lines were reported); per-line problems become verdicts.
func (in *Ingestor) Run(ctx context.Context, r io.Reader, sink Sink, emit func(Verdict) error) error {
	sc := bufio.NewScanner(r)
	initial := 64 * 1024
	if initial > in.opts.MaxLineBytes {
		initial = in.opts.MaxLineBytes
	}
	sc.Buffer(make([]byte, initial), in.opts.MaxLineBytes)
	window := make([]item, 0, in.opts.MaxBatch)
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		line++
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		in.tracesIn.Add(1)
		it := item{line: line}
		tDec := time.Now()
		dec := decodeLine(raw, in.opts)
		obs.IngestDecode.RecordSince(tDec)
		it.id, it.trace, it.code, it.err = dec.id, dec.trace, dec.code, dec.err
		in.points.Add(uint64(dec.points))
		window = append(window, it)
		if len(window) >= in.opts.MaxBatch {
			if err := in.flush(ctx, window, sink, emit); err != nil {
				return err
			}
			window = window[:0]
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The oversized line is unrecoverable mid-stream (the scanner
			// cannot resync), so report it and stop.
			in.tracesIn.Add(1)
			in.rejected.Add(1)
			_ = emit(Verdict{Line: line + 1, Code: CodeLineTooLong,
				Err: fmt.Sprintf("line exceeds %d bytes", in.opts.MaxLineBytes)})
		}
		return fmt.Errorf("ingest: read stream: %w", err)
	}
	if len(window) > 0 {
		return in.flush(ctx, window, sink, emit)
	}
	return nil
}

// flush matches the window across the worker pool, applies the matched
// trajectories as one AddTrajectories mutation, and emits verdicts in
// line order.
func (in *Ingestor) flush(ctx context.Context, window []item, sink Sink, emit func(Verdict) error) error {
	// Fan the decodable lines across the pool. Workers claim indices via
	// the shared cursor; items that already failed decode pass through.
	var cursor atomic.Int64
	workers := in.opts.Workers
	if workers > len(window) {
		workers = len(window)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := <-in.pool
			defer func() { in.pool <- m }()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(window) {
					return
				}
				it := &window[i]
				if it.code != "" {
					continue
				}
				t0 := time.Now()
				tr, err := m.MatchCtx(ctx, it.trace)
				in.matchNanos.Add(uint64(time.Since(t0)))
				obs.IngestMatch.RecordSince(t0)
				if err != nil {
					it.code, it.err = CodeNoMatch, err.Error()
					continue
				}
				it.tr = tr
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	var trs []*trajectory.Trajectory
	var matchedIdx []int
	for i := range window {
		if window[i].tr != nil {
			trs = append(trs, window[i].tr)
			matchedIdx = append(matchedIdx, i)
		}
	}
	var applyErr error
	if len(trs) > 0 {
		t0 := time.Now()
		ids, err := sink.AddTrajectories(ctx, trs)
		in.applyNanos.Add(uint64(time.Since(t0)))
		obs.IngestApply.RecordSince(t0)
		if err != nil {
			applyErr = err
			for _, i := range matchedIdx {
				window[i].code, window[i].err = CodeApplyFailed, err.Error()
			}
		} else {
			in.batches.Add(1)
			for k, i := range matchedIdx {
				window[i].ok, window[i].tid = true, ids[k]
			}
		}
	}

	for i := range window {
		it := &window[i]
		v := Verdict{Line: it.line, ID: it.id}
		if it.ok {
			in.matched.Add(1)
			tid := it.tid
			v.TrajectoryID = &tid
		} else {
			in.rejected.Add(1)
			v.Code, v.Err = it.code, it.err
		}
		if err := emit(v); err != nil {
			return fmt.Errorf("ingest: emit verdict: %w", err)
		}
	}
	if applyErr != nil {
		// The engine refused the mutation (read-only flip, log failure…):
		// later windows would fail identically, so stop the stream.
		return fmt.Errorf("ingest: apply batch: %w", applyErr)
	}
	return nil
}
