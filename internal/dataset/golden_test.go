package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"netclus/internal/core"
	"netclus/internal/gen"
	"netclus/internal/tops"
)

// ledgerInstance is the instance the repo's benchmark serves: bangalore at
// scale 0.01, dataset seed 7 (2 000 nodes, all of them sites).
func ledgerInstance(tb testing.TB) *tops.Instance {
	tb.Helper()
	d, err := Load(Bangalore, Config{Scale: 0.01, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return d.Instance
}

// ledgerFullTauMax is the ledger's derived τmax before the cap: the
// largest sampled site round trip.
const ledgerFullTauMax = 14.08418273798467

// fmTestInstance is the instance core's buildTestIndex makes for seed 337:
// a 500-node grid, 60 trajectories, 120 sites.
func fmTestInstance(t testing.TB) *tops.Instance {
	t.Helper()
	const seed = 337
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 500, SpanKm: 10, Jitter: 0.2,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 60, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 120, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func snapshotSHA(t *testing.T, inst *tops.Instance, opts core.Options) string {
	t.Helper()
	idx, err := core.Build(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := idx.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLedgerBuildGolden pins the bytes of the NCSS snapshot a cold build
// writes: the ledger's default-options build (the index every topsserve
// boot without a checkpoint serves, τ range estimated and τmax capped), the
// same instance over the uncapped ladder, and an FM-sketch clustering
// build. A refactor of the build must keep every hash. They
// are amd64 values; other architectures may fuse multiply-adds and so
// legally round some distances differently.
func TestLedgerBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are amd64 float bits; GOARCH=%s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name string
		inst func(testing.TB) *tops.Instance
		opts core.Options
		want string
	}{
		{
			name: "ledger",
			inst: ledgerInstance,
			want: "9fdf076cdee337ce8fe02c50a558dc4d2294db9e1c1d1388427f6c15d3d2f003",
		},
		{
			// The uncapped §4.4 ladder: τmax is the largest sampled site
			// round trip, as the derived range was before it was capped.
			name: "ledger_full_ladder",
			inst: ledgerInstance,
			opts: core.Options{TauMin: 0.12766602441707325, TauMax: ledgerFullTauMax},
			want: "c0c5f12a8e68aa2c5082164915861430ccf22b708841d5c0ef4beb5a70219638",
		},
		{
			name: "fm",
			inst: fmTestInstance,
			opts: core.Options{
				Gamma: 0.75, TauMin: 0.4, TauMax: 6.4,
				GDSP: core.GDSPOptions{UseFM: true, F: 16, Seed: 7},
			},
			want: "89f1e47fc7138a56e3ec9ff6a4c831ef9e7caf4915874862cf86b21460b473f6",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := snapshotSHA(t, tc.inst(t), tc.opts); got != tc.want {
				t.Fatalf("NCSS SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkLedgerBuild times the cold build of the ledger's index with the
// default options, the build every topsserve boot without a checkpoint runs.
func BenchmarkLedgerBuild(b *testing.B) {
	inst := ledgerInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(inst, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
