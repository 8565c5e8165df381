package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/tops"
)

// Table 7: γ sweep — index build time, space, relative error vs INCG.
func init() {
	register(Experiment{
		ID:    "table7",
		Title: "Resolution parameter γ: build time, index size, relative error vs INCG",
		Run: func(h *Harness) (*Table, error) {
			d, err := h.Dataset(dataset.Beijing)
			if err != nil {
				return nil, err
			}
			distIdx, err := h.DistIndex(dataset.Beijing, stdDmax)
			if err != nil {
				return nil, err
			}
			pref := tops.Binary(defaultTau)
			cs, err := tops.BuildCoverSets(distIdx, pref)
			if err != nil {
				return nil, err
			}
			incg, err := tops.IncGreedy(cs, tops.GreedyOptions{K: defaultK})
			if err != nil {
				return nil, err
			}
			gammas := []float64{0.25, 0.50, 0.75, 1.00}
			if h.cfg.Quick {
				gammas = []float64{0.50, 1.00}
			}
			tbl := &Table{
				ID:      "table7",
				Title:   "γ sweep",
				Headers: []string{"gamma", "instances", "build s", "space MB", "rel err % vs INCG"},
			}
			for _, g := range gammas {
				t0 := time.Now()
				idx, err := core.Build(d.Instance, core.Options{
					Gamma: g, TauMin: stdTauMin, TauMax: stdTauMax,
					GDSP: core.GDSPOptions{UseFM: true, F: 16, Seed: uint64(h.cfg.Seed)},
				})
				if err != nil {
					return nil, err
				}
				buildSec := time.Since(t0).Seconds()
				eng, err := wrapEngine(idx)
				if err != nil {
					return nil, err
				}
				qr, err := eng.Query(context.Background(), core.QueryOptions{K: defaultK, Pref: pref})
				if err != nil {
					return nil, err
				}
				exactU, _ := idx.EvaluateExact(distIdx, pref, qr.Sites)
				relErr := 0.0
				if incg.Utility > 0 {
					relErr = math.Max(0, (incg.Utility-exactU)/incg.Utility)
				}
				tbl.AddRow(fmtF(g), fmt.Sprint(len(idx.Instances)), fmtF(buildSec),
					fmtMB(idx.MemoryBytes()), fmtPct(relErr))
			}
			tbl.AddNote("paper shape: smaller γ -> more instances, more space and build time, lower error (3.5%% at 0.25 to 5.2%% at 1.0)")
			return tbl, nil
		},
	})
}

// Table 8: FM sketch count f sweep.
func init() {
	register(Experiment{
		ID:    "table8",
		Title: "FM sketch count f: utility error and speed-up vs exact NETCLUS greedy",
		Run: func(h *Harness) (*Table, error) {
			idx, err := h.NetClus(dataset.Beijing, stdGamma, stdTauMin, stdTauMax)
			if err != nil {
				return nil, err
			}
			eng, err := h.Engine(dataset.Beijing, stdGamma, stdTauMin, stdTauMax)
			if err != nil {
				return nil, err
			}
			distIdx, err := h.DistIndex(dataset.Beijing, stdDmax)
			if err != nil {
				return nil, err
			}
			pref := tops.Binary(defaultTau)
			t0 := time.Now()
			base, err := eng.Query(context.Background(), core.QueryOptions{K: defaultK, Pref: pref})
			if err != nil {
				return nil, err
			}
			baseSec := time.Since(t0).Seconds()
			baseU, _ := idx.EvaluateExact(distIdx, pref, base.Sites)

			fs := []int{1, 2, 4, 10, 20, 30, 40, 50, 100}
			if h.cfg.Quick {
				fs = []int{1, 10, 30}
			}
			tbl := &Table{
				ID:      "table8",
				Title:   "f sweep (NETCLUS vs FM-NETCLUS)",
				Headers: []string{"f", "NC util%", "FMNC util%", "rel err %", "NC ms", "FMNC ms", "speed-up"},
			}
			m := float64(idx.TopsInstance().M())
			for _, f := range fs {
				t1 := time.Now()
				fmq, err := eng.Query(context.Background(), core.QueryOptions{K: defaultK, Pref: pref, UseFM: true, F: f, Seed: uint64(h.cfg.Seed)})
				if err != nil {
					return nil, err
				}
				fmSec := time.Since(t1).Seconds()
				fmU, _ := idx.EvaluateExact(distIdx, pref, fmq.Sites)
				relErr := 0.0
				if baseU > 0 {
					relErr = math.Max(0, (baseU-fmU)/baseU)
				}
				tbl.AddRow(fmt.Sprint(f), fmtPct(baseU/m), fmtPct(fmU/m), fmtPct(relErr),
					fmtMs(baseSec), fmtMs(fmSec), mustRatio(fmSec, baseSec))
			}
			tbl.AddNote("paper shape: error falls from ~44%% (f=1) to ~2%% (f=50); speed-up shrinks as f grows and inverts near f=100")
			return tbl, nil
		},
	})
}

// Table 11: per-radius index construction statistics.
func init() {
	register(Experiment{
		ID:    "table11",
		Title: "Index construction details per cluster radius (Beijing)",
		Run: func(h *Harness) (*Table, error) {
			idx, err := h.NetClus(dataset.Beijing, stdGamma, stdTauMin, stdTauMax)
			if err != nil {
				return nil, err
			}
			tbl := &Table{
				ID:      "table11",
				Title:   "Per-radius clustering statistics",
				Headers: []string{"R_p km", "clusters", "avg |Λ|", "avg |TL|", "avg |CL|", "build s"},
			}
			for p := range idx.Instances {
				st := idx.Stats(p)
				tbl.AddRow(fmt.Sprintf("%.4f", st.Radius), fmt.Sprint(st.NumClusters),
					fmtF(st.AvgMembers), fmtF(st.AvgTL), fmtF(st.AvgCL), fmtF(st.BuildSeconds))
			}
			// An exact-mode build takes every rung's |Λ(v)| counts from one
			// shared sweep that no row's build time includes. The harness's
			// FM builds and loaded indexes have none.
			if sweep := idx.SweepTime(); sweep > 0 {
				tbl.AddNote("build s excludes the |Λ(v)| sweep all rungs share: %s s", fmtF(sweep.Seconds()))
			}
			tbl.AddNote("paper shape: clusters fall ~exponentially with radius while |Λ| and |TL| grow; |CL| rises then falls")
			return tbl, nil
		},
	})
}

// Table 12: Jaccard-similarity clustering baseline (Appendix B.1).
func init() {
	register(Experiment{
		ID:    "table12",
		Title: "Jaccard-similarity clustering baseline: cost vs τ (α=0.8)",
		Run: func(h *Harness) (*Table, error) {
			distIdx, err := h.DistIndex(dataset.Beijing, stdDmax)
			if err != nil {
				return nil, err
			}
			taus := []float64{0.2, 0.4, 0.8, 1.2}
			if h.cfg.Quick {
				taus = []float64{0.4, 0.8}
			}
			tbl := &Table{
				ID:      "table12",
				Title:   "Jaccard clustering cost",
				Headers: []string{"tau km", "clusters", "time s", "TC entries MB"},
			}
			for _, tau := range taus {
				cs, err := tops.BuildCoverSets(distIdx, tops.Binary(tau))
				if err != nil {
					return nil, err
				}
				res, err := core.JaccardCluster(cs, 0.8)
				if err != nil {
					return nil, err
				}
				tbl.AddRow(fmtF(tau), fmt.Sprint(res.NumClusters),
					fmtF(res.BuildTime.Seconds()), fmtMB(res.PairBytes))
			}
			tbl.AddNote("paper shape: cost grows steeply with τ and OOMs at 2.4 km — clustering must rerun per query τ, unlike NETCLUS")
			return tbl, nil
		},
	})
}
