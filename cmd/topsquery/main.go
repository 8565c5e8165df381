// Command topsquery answers interactive TOPS queries over a dataset: it
// generates (or loads) a dataset, builds the NETCLUS index once, and then
// answers (k, τ, ψ) queries, demonstrating the interactive usage pattern
// the paper motivates ("OL queries are typically used in an interactive
// fashion by varying the various parameters such as k and τ").
//
// Usage:
//
//	topsquery -preset beijing -scale 0.02 -k 5 -tau 0.8
//	topsquery -preset beijing -scale 0.02 -k 5 -tau 0.8 -sweep
//	topsquery -preset atlanta -k 10 -tau 1.6 -pref convex -compare
//	topsquery -graph data/bj.graph -trajs data/bj.trajs -k 5 -tau 0.8
//	topsquery -preset beijing -save bj.ncss          # build once, snapshot
//	topsquery -preset beijing -load bj.ncss -sweep   # warm-start from it
//
// Index construction, persistence and serving all go through the public
// netclus facade — this command is the reference consumer of the supported
// surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"netclus"
	"netclus/internal/dataset"
	"netclus/internal/gen"
	"netclus/internal/geojson"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var (
		preset    = flag.String("preset", "beijing", "dataset preset to generate")
		scale     = flag.Float64("scale", 0.02, "dataset scale")
		seed      = flag.Int64("seed", 42, "generation seed")
		graphPath = flag.String("graph", "", "load road network from this .graph file instead of generating")
		trajPath  = flag.String("trajs", "", "load trajectories from this .trajs file")
		k         = flag.Int("k", 5, "number of sites to place")
		tau       = flag.Float64("tau", 0.8, "coverage threshold τ in km")
		prefName  = flag.String("pref", "binary", "preference function: binary, linear, convex, exp")
		useFM     = flag.Bool("fm", false, "use FM-NETCLUS (binary only)")
		compare   = flag.Bool("compare", false, "also run INC-GREEDY and report the quality gap")
		sweep     = flag.Bool("sweep", false, "re-answer the query for k=1..25 in one engine batch (shares one cached cover)")
		geoOut    = flag.String("geojson", "", "write the network, a trajectory sample and the answer to this GeoJSON file")
		savePath  = flag.String("save", "", "write the built index to this snapshot file")
		loadPath  = flag.String("load", "", "warm-start from this snapshot instead of building (dataset must match)")
		cacheDir  = flag.String("cache", "", "snapshot-cache directory for preset indexes (warm-starts repeat runs)")
		workers   = flag.Int("workers", 0, "index build parallelism (0 = all cores)")
	)
	flag.Parse()
	if *cacheDir != "" && *loadPath != "" {
		fatal(fmt.Errorf("-cache and -load are mutually exclusive: the cache decides which snapshot to read"))
	}
	if *cacheDir != "" && (*graphPath != "" || *trajPath != "") {
		fatal(fmt.Errorf("-cache only applies to -preset datasets; use -save/-load with -graph/-trajs"))
	}

	var inst *tops.Instance
	var idx *netclus.Index
	if *graphPath != "" && *trajPath != "" {
		gf, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		g, err := roadnet.ReadGraph(gf)
		gf.Close()
		if err != nil {
			fatal(err)
		}
		tf, err := os.Open(*trajPath)
		if err != nil {
			fatal(err)
		}
		trajs, err := trajectory.ReadStore(tf)
		tf.Close()
		if err != nil {
			fatal(err)
		}
		sites, err := gen.SampleSites(g, gen.SiteConfig{})
		if err != nil {
			fatal(err)
		}
		inst, err = tops.NewInstance(g, trajs, sites)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d nodes, %d trajectories\n", g.NumNodes(), trajs.Len())
	} else if *cacheDir != "" {
		// Preset + snapshot cache: one call loads the dataset and serves
		// its index warm when a valid cache entry exists.
		t0 := time.Now()
		di, err := netclus.LoadIndexedDataset(dataset.Preset(*preset),
			netclus.DatasetConfig{Scale: *scale, Seed: *seed, CacheDir: *cacheDir},
			netclus.BuildOptions{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		inst = di.Instance
		idx = di.Index
		fmt.Println(di.Summary())
		how := "cold build + cache"
		if di.WarmLoaded {
			how = "warm load"
		}
		fmt.Printf("index via %s (%s) in %.3fs\n", how, di.SnapshotPath, time.Since(t0).Seconds())
	} else {
		d, err := dataset.Load(dataset.Preset(*preset), dataset.Config{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		inst = d.Instance
		fmt.Println(d.Summary())
	}

	pref, err := tops.PreferenceByName(*prefName, *tau, 0)
	if err != nil {
		fatal(err)
	}

	switch {
	case idx != nil: // already warm-started via -cache
	case *loadPath != "":
		fmt.Printf("warm-starting from %s… ", *loadPath)
		t0 := time.Now()
		var err error
		idx, err = netclus.LoadFile(*loadPath, inst)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("done in %.3fs (%d instances, %.1f MB)\n",
			time.Since(t0).Seconds(), len(idx.Instances), float64(idx.MemoryBytes())/(1<<20))
	default:
		fmt.Print("building NETCLUS index (offline phase)… ")
		t0 := time.Now()
		var err error
		idx, err = netclus.Build(inst, netclus.BuildOptions{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("done in %.1fs (%d instances, %.1f MB)\n",
			time.Since(t0).Seconds(), len(idx.Instances), float64(idx.MemoryBytes())/(1<<20))
	}
	if *savePath != "" {
		if err := netclus.SaveFile(idx, *savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("saved snapshot to %s\n", *savePath)
	}

	// Serve through the engine: the first query fills the cover cache for
	// (instance, ψ); the k-sweep below then reuses it, which is the
	// interactive usage pattern the paper motivates.
	eng, err := netclus.NewEngine(idx, netclus.EngineOptions{})
	if err != nil {
		fatal(err)
	}

	t1 := time.Now()
	res, err := eng.Query(context.Background(), netclus.QueryOptions{K: *k, Pref: pref, UseFM: *useFM, Seed: uint64(*seed)})
	if err != nil {
		fatal(err)
	}
	qSec := time.Since(t1).Seconds()
	fmt.Printf("\nTOPS(k=%d, τ=%.2f km, ψ=%s) via instance %d (%d representatives) in %.0f ms\n",
		*k, *tau, pref.Name, res.InstanceUsed, res.NumRepresentatives, qSec*1000)
	fmt.Printf("estimated utility: %.1f (%.1f%% of %d trajectories)\n",
		res.EstimatedUtility, 100*res.EstimatedUtility/float64(inst.M()), inst.M())
	for i, node := range res.Sites {
		p := inst.G.Point(node)
		fmt.Printf("  site %d: node %d at %s\n", i+1, node, p)
	}

	if *sweep {
		// Re-answer the query for a k ladder in one batch: all entries
		// share one cached covering structure.
		var qs []netclus.QueryOptions
		for _, kk := range []int{1, 2, 5, 10, 15, 20, 25} {
			qs = append(qs, netclus.QueryOptions{K: kk, Pref: pref, UseFM: *useFM, Seed: uint64(*seed)})
		}
		t2 := time.Now()
		items := eng.QueryBatch(context.Background(), qs)
		fmt.Printf("\nk-sweep (%d queries in %.0f ms):\n", len(qs), time.Since(t2).Seconds()*1000)
		for i, it := range items {
			if it.Err != nil {
				fatal(it.Err)
			}
			fmt.Printf("  k=%-2d estimated utility %.1f (%.1f%%)\n", qs[i].K,
				it.Result.EstimatedUtility, 100*it.Result.EstimatedUtility/float64(inst.M()))
		}
		st := eng.Stats()
		fmt.Printf("engine: %d queries, cover cache %d hits / %d misses, cover %.0f ms, greedy %.0f ms\n",
			st.Queries+st.BatchQueries, st.CoverHits, st.CoverMisses,
			st.CoverTime.Seconds()*1000, st.GreedyTime.Seconds()*1000)
	}

	if *geoOut != "" {
		fc := geojson.NewCollection()
		fc.AddNetwork(inst.G, 4) // thin the edges for viewability
		for i := 0; i < inst.M() && i < 100; i++ {
			fc.AddTrajectory(inst.G, trajectory.ID(i), inst.Trajs.Get(trajectory.ID(i)))
		}
		fc.AddSites(inst.G, res.Sites)
		f, err := os.Create(*geoOut)
		if err != nil {
			fatal(err)
		}
		if _, err := fc.WriteTo(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *geoOut)
	}

	if *compare {
		fmt.Print("\nrunning INC-GREEDY baseline… ")
		horizon := *tau * 1.5
		if horizon < 2 {
			horizon = 2
		}
		t2 := time.Now()
		distIdx, err := tops.BuildDistanceIndex(inst, horizon)
		if err != nil {
			fatal(err)
		}
		cs, err := tops.BuildCoverSets(distIdx, pref)
		if err != nil {
			fatal(err)
		}
		incg, err := tops.IncGreedy(cs, tops.GreedyOptions{K: *k})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("done in %.1fs\n", time.Since(t2).Seconds())
		exactU, covered := idx.EvaluateExact(distIdx, pref, res.Sites)
		fmt.Printf("INCG utility: %.1f | NETCLUS exact utility: %.1f (%d covered) | ratio %.3f\n",
			incg.Utility, exactU, covered, exactU/incg.Utility)
	}
}
