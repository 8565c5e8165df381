package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/mapmatch"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// answer is what must match between a served response and the twin.
type answer struct {
	sites   []int64
	utility float64
}

func (a answer) equals(r *queryResp) bool {
	return a.utility == r.EstimatedUtility && slices.Equal(a.sites, r.Sites)
}

// twin is the in-process reference: the same preset, scale and seed the
// children are started with, built by the same library calls, never
// touched by the network. Served answers are compared with it bit for bit.
type twin struct {
	inst   *tops.Instance
	idx    *core.Index
	eng    *engine.Engine
	buildS float64
	// want holds the answer to each mix entry on the freshly built index.
	want []answer
}

func buildTwin(cfg *config) (*twin, error) {
	d, err := dataset.Load(dataset.Preset(cfg.preset), dataset.Config{Scale: cfg.scale, Seed: cfg.datasetSeed})
	if err != nil {
		return nil, err
	}
	t := &twin{inst: d.Instance}
	t0 := time.Now()
	if t.idx, err = core.Build(t.inst, core.Options{}); err != nil {
		return nil, fmt.Errorf("building twin index: %w", err)
	}
	t.buildS = time.Since(t0).Seconds()
	if t.eng, err = engine.New(t.idx, engine.Options{}); err != nil {
		return nil, err
	}
	if t.want, err = t.answers(); err != nil {
		return nil, err
	}
	return t, nil
}

// utilityRatio is the paper's quality measure for the twin in its current
// state: the exact utility of its answers over the exact utility of
// IncGreedy run on the full, unclustered instance as it now stands,
// averaged over the mix. The distance index is built on the spot because
// site ids are positions in the site list, which a site deletion reorders.
func (t *twin) utilityRatio() (float64, error) {
	answers, err := t.answers()
	if err != nil {
		return 0, err
	}
	maxTau := 0.0
	for _, q := range queryMix {
		maxTau = math.Max(maxTau, q.Tau)
	}
	dist, err := tops.BuildDistanceIndex(t.idx.TopsInstance(), maxTau)
	if err != nil {
		return 0, fmt.Errorf("building exact distance index: %w", err)
	}
	var ratios []float64
	for i, q := range queryMix {
		cs, err := tops.BuildCoverSets(dist, q.preference())
		if err != nil {
			return 0, err
		}
		exact, err := tops.IncGreedy(cs, tops.GreedyOptions{K: q.K})
		if err != nil {
			return 0, fmt.Errorf("exact greedy for %+v: %w", q, err)
		}
		nodes := make([]roadnet.NodeID, len(answers[i].sites))
		for j, v := range answers[i].sites {
			nodes[j] = roadnet.NodeID(v)
		}
		got, _ := t.idx.EvaluateExact(dist, q.preference(), nodes)
		if exact.Utility <= 0 {
			return 0, fmt.Errorf("exact greedy found no utility for %+v; the mix does not fit this dataset", q)
		}
		ratios = append(ratios, got/exact.Utility)
	}
	return mean(ratios), nil
}

// answers queries the twin engine with the whole mix.
func (t *twin) answers() ([]answer, error) {
	out := make([]answer, len(queryMix))
	for i, q := range queryMix {
		res, err := t.eng.Query(context.Background(), q.options())
		if err != nil {
			return nil, fmt.Errorf("twin query %+v: %w", q, err)
		}
		a := answer{utility: res.EstimatedUtility, sites: make([]int64, len(res.Sites))}
		for j, v := range res.Sites {
			a.sites[j] = int64(v)
		}
		res.Release()
		out[i] = a
	}
	return out, nil
}

// shapeOK is the per-request check while the index is being mutated under
// the query (no fixed expected answer exists): up to k distinct sites
// inside the graph (fewer only when a coarse instance has fewer
// representatives) and a finite positive utility.
func (t *twin) shapeOK(q querySpec, r *queryResp) bool {
	if len(r.Sites) == 0 || len(r.Sites) > q.K || math.IsNaN(r.EstimatedUtility) || math.IsInf(r.EstimatedUtility, 0) || r.EstimatedUtility <= 0 {
		return false
	}
	seen := make(map[int64]bool, len(r.Sites))
	for _, v := range r.Sites {
		if v < 0 || int(v) >= t.inst.G.NumNodes() || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// served asks the live front door for the whole mix.
func served(c *conn, url string) ([]queryResp, error) {
	out := make([]queryResp, len(queryMix))
	for i, q := range queryMix {
		status, raw, err := c.post(url+"/v1/query", q.body(), "")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("query %+v answered %d: %s", q, status, raw)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("query %+v: %w", q, err)
		}
	}
	return out, nil
}

// mismatches counts mix entries whose served answer differs from the
// twin's current state.
func (t *twin) mismatches(c *conn, url string) (int, error) {
	want, err := t.answers()
	if err != nil {
		return 0, err
	}
	got, err := served(c, url)
	if err != nil {
		return 0, err
	}
	bad := 0
	for i := range want {
		if !want[i].equals(&got[i]) {
			bad++
		}
	}
	return bad, nil
}

// replayFlips applies n acknowledged site flips to the twin.
func (t *twin) replayFlips(node int64, n int) error {
	for i := 0; i < n; i++ {
		if err := t.eng.DeleteSite(roadnet.NodeID(node)); err != nil {
			return fmt.Errorf("twin flip %d: %w", i, err)
		}
		if err := t.eng.AddSite(roadnet.NodeID(node)); err != nil {
			return fmt.Errorf("twin flip %d: %w", i, err)
		}
	}
	return nil
}

// replayLog pulls the server's whole write-ahead log over /v1/log and
// applies it to the twin, returning the decoded records. Map-matching the
// feed a second time in-process would cost as much as the measured window;
// the log carries exactly what the server committed, and checkMatches
// spot-checks the matcher's share separately.
func (t *twin) replayLog(client *http.Client, url string) ([]wal.Mutation, error) {
	var muts []wal.Mutation
	for {
		resp, err := client.Get(url + "/v1/log?from=" + strconv.FormatUint(t.eng.LSN()+1, 10))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("/v1/log answered %d: %s", resp.StatusCode, raw)
		}
		head, _ := strconv.ParseUint(resp.Header.Get("X-Netclus-Head-LSN"), 10, 64)
		br := bufio.NewReader(resp.Body)
		for {
			rec, err := wal.ReadFrame(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				resp.Body.Close()
				return nil, err
			}
			if err := t.eng.ApplyRecord(rec); err != nil {
				resp.Body.Close()
				return nil, err
			}
			m, _ := rec.Mutation() // ApplyRecord decoded the same bytes
			muts = append(muts, m)
		}
		resp.Body.Close()
		if t.eng.LSN() >= head {
			return muts, nil
		}
	}
}

// gpsFeed is the ingest workload's input: n noisy GPS traces emitted from
// the dataset's own trajectories (so every one is on the network), as
// trace values for the in-process matcher and as the NDJSON body.
type gpsFeed struct {
	traces []trajectory.GPSTrace
	ndjson []byte
}

func (t *twin) gpsFeed(seed int64, n int) gpsFeed {
	var f gpsFeed
	m := t.inst.M()
	for i := 0; i < n; i++ {
		tr := t.inst.Trajs.Get(trajectory.ID(i % m))
		trace := gen.EmitGPS(t.inst.G, tr, gen.GPSConfig{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01, Seed: seed*1_000_003 + int64(i)})
		f.traces = append(f.traces, trace)
		f.ndjson = fmt.Appendf(f.ndjson, `{"id":"t%d","points":[`, i)
		for j, p := range trace.Points {
			if j > 0 {
				f.ndjson = append(f.ndjson, ',')
			}
			f.ndjson = fmt.Appendf(f.ndjson, `{"x":%g,"y":%g,"t":%g}`, p.Pos.X, p.Pos.Y, p.Time)
		}
		f.ndjson = append(f.ndjson, "]}\n"...)
	}
	return f
}

// checkMatches map-matches the first few traces in-process and compares
// the node sequences with what the server logged for them. It returns how
// many differ.
func (t *twin) checkMatches(feed gpsFeed, logged []wal.Mutation, n int) int {
	var trajs []wal.TrajData
	for _, m := range logged {
		trajs = append(trajs, m.Trajs...)
	}
	matcher := mapmatch.NewMatcher(t.inst.G, mapmatch.Config{})
	bad := 0
	for i := 0; i < n && i < len(feed.traces); i++ {
		tr, err := matcher.Match(feed.traces[i])
		if err != nil || i >= len(trajs) || !slices.Equal(wal.FromTrajectory(tr).Nodes, trajs[i].Nodes) {
			bad++
		}
	}
	return bad
}
