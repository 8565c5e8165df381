package server

import (
	"math"
	"strings"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/shard"
	"netclus/internal/wal"
)

func TestDecodeQueryRequestValid(t *testing.T) {
	q, err := DecodeQuery([]byte(`{"k":5,"tau":0.8,"pref":"exp","lambda":2,"timeout_ms":250}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Opts.K != 5 || q.Opts.Pref.Tau != 0.8 || q.Opts.Pref.Name != "exp-decay" {
		t.Fatalf("decoded %+v", q.Opts)
	}
	if q.Pref != (shard.WirePref{Name: "exp", Tau: 0.8, Lambda: 2}) {
		t.Fatalf("wire preference %+v", q.Pref)
	}
	if q.Timeout != 250*time.Millisecond {
		t.Fatalf("timeout %v", q.Timeout)
	}
	// Default preference is binary; zero timeout means "server default".
	q, err = DecodeQuery([]byte(`{"k":1,"tau":2}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Opts.Pref.Name != "binary" || q.Timeout != 0 {
		t.Fatalf("defaults: %+v timeout %v", q.Opts, q.Timeout)
	}
	// Client timeouts clamp to the limit instead of erroring.
	q, err = DecodeQuery([]byte(`{"k":1,"tau":2,"timeout_ms":999999999}`), Limits{MaxTimeout: time.Second})
	if err != nil || q.Timeout != time.Second {
		t.Fatalf("clamp: %v %v", q.Timeout, err)
	}
}

func TestDecodeUpdateRequestValid(t *testing.T) {
	u, err := wal.DecodeUpdate([]byte(`{"op":"add_trajectory","nodes":[1,2,3]}`))
	if err != nil || len(u.Nodes) != 3 {
		t.Fatalf("%+v %v", u, err)
	}
	if _, err := wal.DecodeUpdate([]byte(`{"op":"delete_site","node":7}`)); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeQueryRequest is the serving layer's input-hardening gate,
// mirroring PR-2's FuzzLoadSnapshot discipline for the snapshot codec: for
// arbitrary request bytes the decoder must either reject (the handler
// answers 4xx) or produce options that are in-range and engine-safe. It
// must never panic, and NaN/Inf floats, huge k, negative τ or trailing
// garbage must never survive into accepted options.
func FuzzDecodeQueryRequest(f *testing.F) {
	seeds := []string{
		`{"k":5,"tau":0.8}`,
		`{"k":1,"tau":6.4,"pref":"linear"}`,
		`{"k":3,"tau":0.5,"pref":"exp","lambda":0.7,"timeout_ms":100}`,
		`{"k":2,"tau":0.8,"fm":true,"f":32,"seed":9}`,
		`{"k":-1,"tau":0.8}`,
		`{"k":5,"tau":-3}`,
		`{"k":5,"tau":1e999}`,
		`{"k":99999999999999999999,"tau":0.8}`,
		`{"k":5,"tau":NaN}`,
		`{"k":5,"tau":Infinity}`,
		`{"k":5,"tau":0.8,"unknown":true}`,
		`{"k":5,"tau":0.8}trailing`,
		`[{"k":5}]`,
		`"string"`,
		`null`,
		``,
		`{`,
		strings.Repeat(`{"a":`, 64) + "1" + strings.Repeat(`}`, 64),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(data, lim)
		opts, timeout := q.Opts, q.Timeout
		if err == nil {
			if opts.K <= 0 || opts.K > lim.MaxK {
				t.Fatalf("accepted k = %d outside (0, %d]", opts.K, lim.MaxK)
			}
			if math.IsNaN(opts.Pref.Tau) || math.IsInf(opts.Pref.Tau, 0) || opts.Pref.Tau <= 0 || opts.Pref.Tau > lim.MaxTau {
				t.Fatalf("accepted tau = %v outside (0, %v]", opts.Pref.Tau, lim.MaxTau)
			}
			if verr := opts.Pref.Validate(); verr != nil {
				t.Fatalf("accepted preference fails engine validation: %v", verr)
			}
			if opts.UseFM && opts.Pref.Name != "binary" {
				t.Fatalf("accepted FM over %s", opts.Pref.Name)
			}
			if wp, werr := q.Pref.Preference(); werr != nil || core.PrefFingerprint(wp) != core.PrefFingerprint(opts.Pref) {
				t.Fatalf("wire preference %+v lowers to another function than the options' %s (%v)", q.Pref, opts.Pref.Name, werr)
			}
			if timeout < 0 || timeout > lim.MaxTimeout {
				t.Fatalf("accepted timeout %v outside [0, %v]", timeout, lim.MaxTimeout)
			}
		}
		// The sibling decoders (the batch body, and the update body's
		// wal.DecodeUpdate) are just as strict; drive them over the same
		// corpus for free coverage.
		if qs, itemErrs, _, err := DecodeBatch(data, lim); err == nil {
			for i := range qs {
				if itemErrs[i] == nil && (qs[i].Opts.K <= 0 || qs[i].Opts.K > lim.MaxK) {
					t.Fatalf("batch accepted k = %d", qs[i].Opts.K)
				}
			}
		}
		if u, err := wal.DecodeUpdate(data); err == nil {
			switch u.Op {
			case "add_site", "delete_site", "add_trajectory", "delete_trajectory":
			default:
				t.Fatalf("accepted op %q", u.Op)
			}
			if u.Node < 0 || u.ID < 0 {
				t.Fatalf("accepted negative identifier: %+v", u)
			}
		}
	})
}
