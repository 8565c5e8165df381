package mapmatch

import (
	"fmt"
	"slices"
	"testing"

	"netclus/internal/dataset"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// ledgerFeed is the GPS feed of the repository benchmark's ingest_stream
// workload (cmd/topsload): n traces emitted from the trajectories of
// `bangalore` at scale 0.01, dataset seed 7, one point per 0.15 km with
// 0.01 km of noise, seeded as the workload seeds them for its seed 7.
func ledgerFeed(tb testing.TB, n int) (*roadnet.Graph, []trajectory.GPSTrace) {
	tb.Helper()
	d, err := dataset.Load(dataset.Bangalore, dataset.Config{Scale: 0.01, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	g, store := d.Instance.G, d.Instance.Trajs
	traces := make([]trajectory.GPSTrace, n)
	for i := range traces {
		tr := store.Get(trajectory.ID(i % store.Len()))
		traces[i] = gen.EmitGPS(g, tr, gen.GPSConfig{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01, Seed: 7*1_000_003 + int64(i)})
	}
	return g, traces
}

// sameMatch fails the test unless m and the frozen reference agree on the
// trace: both fail, or both return the same node walk. It reports whether
// the trace matched.
func sameMatch(t *testing.T, what string, m *Matcher, ref *refMatcher, trace trajectory.GPSTrace) bool {
	t.Helper()
	got, err := m.Match(trace)
	want, refErr := ref.Match(trace)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: Match error %v, reference error %v", what, err, refErr)
	}
	if err == nil && !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: Match walk differs from the reference:\n got  %v\n want %v", what, got.Nodes, want.Nodes)
	}
	return err == nil
}

// TestMatchDifferential holds Match to the frozen pre-pooling matcher
// (reference_test.go) node for node, with one Matcher reused across every
// trace so stale lattice or scratch state would show: on the benchmark's
// own feed, and on the test city at every sampling and noise level the
// round-trip property test uses, under the default and two tuned configs.
func TestMatchDifferential(t *testing.T) {
	t.Run("ledger", func(t *testing.T) {
		n := 1000
		if testing.Short() {
			n = 100
		}
		g, traces := ledgerFeed(t, n)
		m, ref := NewMatcher(g, Config{}), newRefMatcher(g, Config{})
		for i, trace := range traces {
			if !sameMatch(t, fmt.Sprintf("ledger trace %d", i), m, ref, trace) {
				t.Fatalf("ledger trace %d did not match; the benchmark's feed matches in full", i)
			}
		}
	})
	t.Run("testCity", func(t *testing.T) {
		city := testCity(t)
		store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 20, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		matched, total := 0, 0
		for _, cfg := range []Config{{}, {MinPointSpacingKm: 0.05}, {SigmaKm: 0.03, CandidateRadiusKm: 0.25}} {
			m, ref := NewMatcher(city.Graph, cfg), newRefMatcher(city.Graph, cfg)
			for _, gps := range []gen.GPSConfig{
				{SampleEveryKm: 0.10, NoiseSigmaKm: -1},
				{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01},
				{SampleEveryKm: 0.25, NoiseSigmaKm: 0.02},
				{SampleEveryKm: 0.40, NoiseSigmaKm: 0.03},
			} {
				for i := 0; i < store.Len(); i++ {
					gps.Seed = int64(1000*i) + 17
					trace := gen.EmitGPS(city.Graph, store.Get(trajectory.ID(i)), gps)
					if sameMatch(t, fmt.Sprintf("testCity trace %d %+v %+v", i, cfg, gps), m, ref, trace) {
						matched++
					}
					total++
				}
			}
		}
		if matched < total*3/4 {
			t.Fatalf("only %d of %d testCity traces matched: the comparison is mostly of errors", matched, total)
		}
	})
	t.Run("gap", func(t *testing.T) {
		g := twoComponentGraph(t)
		sameMatch(t, "two-component trace", NewMatcher(g, Config{}), newRefMatcher(g, Config{}), gapTrace)
	})
}
