package ingest

import (
	"context"
	"strings"
	"testing"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/mapmatch"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// ledgerFeed is the GPS feed of the repository benchmark's ingest_stream
// workload (cmd/topsload): n traces emitted from the trajectories of
// `bangalore` at scale 0.01, dataset seed 7, one point per 0.15 km with
// 0.01 km of noise, seeded as the workload seeds them for its seed 7. It
// returns the dataset's instance with the feed in NDJSON.
func ledgerFeed(tb testing.TB, n int) (*tops.Instance, string) {
	tb.Helper()
	d, err := dataset.Load(dataset.Bangalore, dataset.Config{Scale: 0.01, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	inst := d.Instance
	traces := make([]trajectory.GPSTrace, n)
	for i := range traces {
		tr := inst.Trajs.Get(trajectory.ID(i % inst.Trajs.Len()))
		traces[i] = gen.EmitGPS(inst.G, tr, gen.GPSConfig{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01, Seed: 7*1_000_003 + int64(i)})
	}
	return inst, ndjsonPlanar(traces)
}

// reportMatch reports the matcher's CPU per matched trace, summed over
// workers — the ledger's ingest.match_ms_per_trace.
func reportMatch(b *testing.B, in *Ingestor) {
	matched := in.matched.Load()
	if matched == 0 {
		b.Fatal("benchmark matched zero traces")
	}
	b.ReportMetric(float64(in.matchNanos.Load())/1e6/float64(matched), "match-ms/trace")
}

// BenchmarkIngest streams the ledger's feed through the full pipeline —
// decode, map-matching on one worker (as topsload pins `-ingest-workers
// 1`), 64-trace AddTrajectories windows — into a live engine over the
// ledger's index. match-ms/trace is comparable with the ledger's
// ingest.match_ms_per_trace and apply-ms/window with
// ingest.apply_ms_per_window (the EXPERIMENTS.md ingest throughput row).
// Every iteration adds its 256 traces to the same engine, as the ledger's
// feed accumulates in one server.
func BenchmarkIngest(b *testing.B) {
	const traces = 256
	inst, feed := ledgerFeed(b, traces)
	idx, err := core.Build(inst, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := New(inst.G, Options{Workers: 1})
	sink := SinkFunc(func(_ context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
		return eng.AddTrajectories(trs)
	})
	drop := func(Verdict) error { return nil }

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Run(context.Background(), strings.NewReader(feed), sink, drop); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	b.ReportMetric(float64(traces*b.N)/b.Elapsed().Seconds(), "traces/s")
	reportMatch(b, in)
	b.ReportMetric(float64(in.applyNanos.Load())/1e6/float64(in.batches.Load()), "apply-ms/window")
}

// BenchmarkIngestPool is the regression benchmark for the two-valued pool
// (ROADMAP item 1(a)): with Workers 2, some processes matched every trace
// at about 1.6× the cost of others, for their whole life. The pool arm runs
// the matchers ingest.New builds; the independent arm swaps in two
// matchers built separately (each with its own grid), the set-up that ran
// steadily. The sink drops the windows, so only decode and matching are
// timed. The symptom is per process, so compare match-ms/trace across
// fresh processes (-count 1, repeated), not across -count iterations.
func BenchmarkIngestPool(b *testing.B) {
	inst, feed := ledgerFeed(b, 128)
	sink := SinkFunc(func(_ context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
		return make([]trajectory.ID, len(trs)), nil
	})
	drop := func(Verdict) error { return nil }
	run := func(b *testing.B, in *Ingestor) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.Run(context.Background(), strings.NewReader(feed), sink, drop); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportMatch(b, in)
	}
	b.Run("pool", func(b *testing.B) {
		run(b, New(inst.G, Options{Workers: 2}))
	})
	b.Run("independent", func(b *testing.B) {
		in := New(inst.G, Options{Workers: 2})
		in.pool = make(chan *mapmatch.Matcher, 2)
		for i := 0; i < 2; i++ {
			in.pool <- mapmatch.NewMatcher(inst.G, in.opts.Match)
		}
		run(b, in)
	})
}
