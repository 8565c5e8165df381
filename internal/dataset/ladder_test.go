package dataset

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// uncappedTauMax is the §4.4 τmax the derived range had before its cap: the
// largest finite round trip from the estimator's full-search samples (every
// fourth of the sites it samples, len/64+1 apart) to any site.
func uncappedTauMax(inst *tops.Instance) float64 {
	every := len(inst.Sites)/64 + 1
	tmax := 0.0
	for i := 0; i < len(inst.Sites); i += 4 * every {
		rts := roadnet.RoundTripsFrom(inst.G, inst.Sites[i])
		for _, s := range inst.Sites {
			if rt := rts[s]; !math.IsInf(rt, 1) && rt > tmax {
				tmax = rt
			}
		}
	}
	return tmax
}

// TestCappedLadderKeepsRungs: the default build's capped τmax only drops
// top rungs. Its ladder is shorter than the full §4.4 ladder over the same
// τmin, and each of its rungs is the full ladder's rung at that position —
// the same clusters, node assignment and trajectory cluster sequences.
func TestCappedLadderKeepsRungs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inst  func(testing.TB) *tops.Instance
		rungs int
		// fullTauMax, when set, pins uncappedTauMax to the parent's
		// derived τmax, so the full ladder is the parent's default build.
		fullTauMax float64
	}{
		{"ledger", ledgerInstance, 6, ledgerFullTauMax},
		{"beijing-0.01", func(tb testing.TB) *tops.Instance {
			d, err := Load(Beijing, Config{Scale: 0.01, Seed: 7})
			if err != nil {
				tb.Fatal(err)
			}
			return d.Instance
		}, 7, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst(t)
			capped, err := core.Build(inst, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tmin, tmax := capped.TauRange()
			fullMax := uncappedTauMax(inst)
			if tc.fullTauMax != 0 && fullMax != tc.fullTauMax {
				t.Fatalf("uncapped τmax %v, want the parent's %v", fullMax, tc.fullTauMax)
			}
			if !(tmax < fullMax) {
				t.Fatalf("default τmax %v is not below the largest site round trip %v", tmax, fullMax)
			}
			full, err := core.Build(inst, core.Options{TauMin: tmin, TauMax: fullMax})
			if err != nil {
				t.Fatal(err)
			}
			if len(capped.Instances) != tc.rungs || len(capped.Instances) >= len(full.Instances) {
				t.Fatalf("capped ladder has %d rungs, want %d and fewer than the full ladder's %d",
					len(capped.Instances), tc.rungs, len(full.Instances))
			}
			t.Logf("%d of %d rungs kept (τmax %v of %v)", len(capped.Instances), len(full.Instances), tmax, fullMax)
			for p, got := range capped.Instances {
				want := full.Instances[p]
				if got.Radius != want.Radius {
					t.Fatalf("rung %d: radius %v, full ladder %v", p, got.Radius, want.Radius)
				}
				if !reflect.DeepEqual(got.Clusters, want.Clusters) {
					t.Errorf("rung %d: clusters differ from the full ladder's", p)
				}
				if !reflect.DeepEqual(got.NodeCluster, want.NodeCluster) {
					t.Errorf("rung %d: node clusters differ from the full ladder's", p)
				}
				if !reflect.DeepEqual(got.CC, want.CC) {
					t.Errorf("rung %d: cluster sequences differ from the full ladder's", p)
				}
			}
		})
	}
}

// BenchmarkBuildScale times the default cold build of beijing over a range
// of scales, reporting the instance size, the ladder length, the shared
// |Λ(v)| sweep and the whole build, so the build's growth with |V| can be
// read off one run.
func BenchmarkBuildScale(b *testing.B) {
	for _, scale := range []float64{0.01, 0.02, 0.04} {
		b.Run(fmt.Sprintf("beijing-%g", scale), func(b *testing.B) {
			d, err := Load(Beijing, Config{Scale: scale, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			var sweep, build time.Duration
			var rungs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				idx, err := core.Build(d.Instance, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				build += time.Since(start)
				sweep += idx.SweepTime()
				rungs = len(idx.Instances)
			}
			b.ReportMetric(float64(d.Instance.G.NumNodes()), "nodes")
			b.ReportMetric(float64(rungs), "rungs")
			b.ReportMetric(sweep.Seconds()/float64(b.N), "sweep_s")
			b.ReportMetric(build.Seconds()/float64(b.N), "build_s")
		})
	}
}
