package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"netclus/internal/core"
	"netclus/internal/shard"
)

// Limits bound what the request decoder accepts. Every bound exists to
// keep a hostile or buggy client from turning one request into unbounded
// work: k caps the greedy, τ caps the ladder walk, the batch cap bounds
// one coalesced engine call, and the body cap bounds the JSON parser.
type Limits struct {
	// MaxK rejects queries asking for more sites than any deployment
	// plausibly serves.
	MaxK int
	// MaxTau rejects coverage thresholds beyond the index's design range
	// (queries clamp to the ladder anyway; the bound exists to fail loudly
	// instead of silently serving the coarsest instance).
	MaxTau float64
	// MaxBatch bounds the number of queries in one /v1/query/batch body.
	MaxBatch int
	// MaxBodyBytes bounds any request body (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxIngestBytes bounds one /v1/ingest request body. Streams are
	// consumed incrementally (never buffered whole), so the cap is a
	// defence against runaway connections, not a memory bound.
	MaxIngestBytes int64
	// MaxTimeout caps the per-request deadline a client may ask for.
	MaxTimeout time.Duration
}

// DefaultMaxBodyBytes is MaxBodyBytes' default, and the router's body cap
// on every endpoint.
const DefaultMaxBodyBytes = 1 << 20

func (l Limits) withDefaults() Limits {
	if l.MaxK <= 0 {
		l.MaxK = 10_000
	}
	if l.MaxTau <= 0 {
		l.MaxTau = 1e4
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 1024
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if l.MaxIngestBytes <= 0 {
		l.MaxIngestBytes = 1 << 30
	}
	if l.MaxTimeout <= 0 {
		l.MaxTimeout = time.Minute
	}
	return l
}

// queryRequest is the wire form of one TOPS query.
type queryRequest struct {
	K    int     `json:"k"`
	Tau  float64 `json:"tau"`
	Pref string  `json:"pref"`
	// Lambda is the decay rate of the exp preference; ignored otherwise.
	Lambda float64 `json:"lambda,omitempty"`
	FM     bool    `json:"fm,omitempty"`
	F      int     `json:"f,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	// TimeoutMs is the per-request deadline; 0 means the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// batchRequest is the wire form of /v1/query/batch.
type batchRequest struct {
	Queries   []queryRequest `json:"queries"`
	TimeoutMs int64          `json:"timeout_ms,omitempty"`
}

// StrictUnmarshal decodes exactly one JSON value into v, rejecting unknown
// fields and trailing garbage. encoding/json already rejects NaN/Inf
// literals (they are not JSON) and out-of-range numbers like 1e999; the
// validators behind this still guard the finite-range invariants so no
// parser quirk can smuggle a non-finite float into the engine.
func StrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Query is one decoded, validated /v1/query item: the engine options, the
// preference as the client named it (what topsrouter ships to its members,
// which lower it through the same tops.PreferenceByName), and the deadline
// the client asked for (0: the server default).
type Query struct {
	Opts    core.QueryOptions
	Pref    shard.WirePref
	Timeout time.Duration
}

// toQuery validates one wire query against the limits and lowers it.
func (q queryRequest) toQuery(lim Limits) (Query, error) {
	if q.K <= 0 {
		return Query{}, fmt.Errorf("k = %d must be positive", q.K)
	}
	if q.K > lim.MaxK {
		return Query{}, fmt.Errorf("k = %d exceeds limit %d", q.K, lim.MaxK)
	}
	if !finite(q.Tau) || q.Tau <= 0 {
		return Query{}, fmt.Errorf("tau = %v must be a positive finite number", q.Tau)
	}
	if q.Tau > lim.MaxTau {
		return Query{}, fmt.Errorf("tau = %v exceeds limit %v", q.Tau, lim.MaxTau)
	}
	wp := shard.WirePref{Name: q.Pref, Tau: q.Tau, Lambda: q.Lambda}
	pref, err := wp.Preference()
	if err != nil {
		return Query{}, err
	}
	if q.FM {
		if q.Pref != "" && q.Pref != "binary" {
			return Query{}, fmt.Errorf("fm requires the binary preference")
		}
		if q.F < 0 || q.F > 1024 {
			return Query{}, fmt.Errorf("f = %d outside [0, 1024]", q.F)
		}
	} else if q.F != 0 {
		return Query{}, fmt.Errorf("f applies only to fm queries")
	}
	if q.TimeoutMs < 0 {
		return Query{}, fmt.Errorf("timeout_ms = %d must be non-negative", q.TimeoutMs)
	}
	timeout := time.Duration(q.TimeoutMs) * time.Millisecond
	if timeout > lim.MaxTimeout {
		timeout = lim.MaxTimeout
	}
	return Query{
		Opts: core.QueryOptions{
			K:     q.K,
			Pref:  pref,
			UseFM: q.FM,
			F:     q.F,
			Seed:  q.Seed,
		},
		Pref:    wp,
		Timeout: timeout,
	}, nil
}

// DecodeQuery parses and validates one /v1/query body — for topsserve and
// topsrouter alike. It is the fuzz surface of the serving layer: for
// arbitrary bytes it must either return an error (the request is answered
// 4xx) or produce options that the engine accepts without panicking.
func DecodeQuery(data []byte, lim Limits) (Query, error) {
	lim = lim.withDefaults()
	var q queryRequest
	if err := StrictUnmarshal(data, &q); err != nil {
		return Query{}, err
	}
	return q.toQuery(lim)
}

// DecodeBatch parses one /v1/query/batch body. Structural problems (bad
// JSON, empty or oversized batch, bad batch timeout) fail the whole
// request; per-item validation failures come back in itemErrs — index-
// aligned with qs — so one bad query degrades only its own slot, mirroring
// Engine.QueryBatch semantics.
func DecodeBatch(data []byte, lim Limits) (qs []Query, itemErrs []error, timeout time.Duration, err error) {
	lim = lim.withDefaults()
	var b batchRequest
	if err := StrictUnmarshal(data, &b); err != nil {
		return nil, nil, 0, err
	}
	if len(b.Queries) == 0 {
		return nil, nil, 0, fmt.Errorf("empty batch")
	}
	if len(b.Queries) > lim.MaxBatch {
		return nil, nil, 0, fmt.Errorf("batch of %d exceeds limit %d", len(b.Queries), lim.MaxBatch)
	}
	if b.TimeoutMs < 0 {
		return nil, nil, 0, fmt.Errorf("timeout_ms = %d must be non-negative", b.TimeoutMs)
	}
	timeout = time.Duration(b.TimeoutMs) * time.Millisecond
	if timeout > lim.MaxTimeout {
		timeout = lim.MaxTimeout
	}
	qs = make([]Query, len(b.Queries))
	itemErrs = make([]error, len(b.Queries))
	for i, q := range b.Queries {
		if q.TimeoutMs != 0 {
			itemErrs[i] = fmt.Errorf("set timeout_ms on the batch, not its items")
			continue
		}
		qs[i], itemErrs[i] = q.toQuery(lim)
	}
	return qs, itemErrs, timeout, nil
}
