package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// buildFixture mirrors the shard package's differential fixture: two calls
// with the same seed yield independent but identical instances — one feeds
// the single-engine twin, the others the HTTP members.
func buildFixture(t testing.TB, seed int64) (*tops.Instance, *gen.City) {
	t.Helper()
	return buildFixtureSites(t, seed, 120)
}

// buildFixtureSites is buildFixture with the given number of candidate
// sites.
func buildFixtureSites(t testing.TB, seed int64, count int) (*tops.Instance, *gen.City) {
	t.Helper()
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
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: count, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		t.Fatal(err)
	}
	return inst, city
}

var fixtureBuild = core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4}

// engineTwin is the single engine over inst: the oracle a routed topology
// over the same dataset answers bit-exactly.
func engineTwin(t testing.TB, inst *tops.Instance) *engine.Engine {
	t.Helper()
	idx, err := core.Build(inst, fixtureBuild)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// memberServer builds shard j of an n-shard topology over inst and
// serves it (member surface mounted) from an httptest server.
func memberServer(t testing.TB, inst *tops.Instance, j, n int) (*httptest.Server, *shard.Member) {
	t.Helper()
	return serveMember(t, inst, j, shard.Options{Shards: n, Build: fixtureBuild})
}

// serveMember builds shard j of the topology opts describes over inst and
// serves it from an httptest server.
func serveMember(t testing.TB, inst *tops.Instance, j int, opts shard.Options) (*httptest.Server, *shard.Member) {
	t.Helper()
	m, err := shard.BuildMember(inst, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(m, server.Options{Member: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, m
}

func postJSON(t testing.TB, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// wireAnswer is the /v1/query response shape under test.
type wireAnswer struct {
	Sites              []int64 `json:"sites"`
	SiteIDs            []int32 `json:"site_ids"`
	EstimatedUtility   float64 `json:"estimated_utility"`
	EstimatedCovered   int     `json:"estimated_covered"`
	InstanceUsed       int     `json:"instance_used"`
	NumRepresentatives int     `json:"num_representatives"`
}

// sameAnswer asserts BIT-exact equality between a router HTTP answer and
// the twin's — Go's JSON float64 encoding round-trips exactly,
// so equality here is equality of the underlying float bits.
func sameAnswer(t *testing.T, label string, got wireAnswer, want *core.QueryResult) {
	t.Helper()
	if got.EstimatedUtility != want.EstimatedUtility {
		t.Fatalf("%s: utility %v != %v (diff %g)", label, got.EstimatedUtility, want.EstimatedUtility, got.EstimatedUtility-want.EstimatedUtility)
	}
	if got.EstimatedCovered != want.EstimatedCovered {
		t.Fatalf("%s: covered %d != %d", label, got.EstimatedCovered, want.EstimatedCovered)
	}
	if got.InstanceUsed != want.InstanceUsed {
		t.Fatalf("%s: instance %d != %d", label, got.InstanceUsed, want.InstanceUsed)
	}
	if got.NumRepresentatives != want.NumRepresentatives {
		t.Fatalf("%s: representatives %d != %d", label, got.NumRepresentatives, want.NumRepresentatives)
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("%s: %d sites != %d", label, len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i] != int64(want.Sites[i]) {
			t.Fatalf("%s: site %d: node %d != %d", label, i, got.Sites[i], want.Sites[i])
		}
		if got.SiteIDs[i] != int32(want.SiteIDs[i]) {
			t.Fatalf("%s: site %d: dense id %d != %d", label, i, got.SiteIDs[i], want.SiteIDs[i])
		}
	}
}

// drawQuery picks a random preference (or an FM-sketch query over the
// binary one) and its wire form plus the in-process options for the twin.
func drawQuery(rng *rand.Rand) (string, core.QueryOptions) {
	k := 1 + rng.Intn(12)
	tau := 0.3 + rng.Float64()*6.0
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf(`{"k":%d,"tau":%v}`, k, tau),
			core.QueryOptions{K: k, Pref: tops.Binary(tau)}
	case 1:
		return fmt.Sprintf(`{"k":%d,"tau":%v,"pref":"linear"}`, k, tau),
			core.QueryOptions{K: k, Pref: tops.Linear(tau)}
	case 2:
		return fmt.Sprintf(`{"k":%d,"tau":%v,"pref":"convex"}`, k, tau),
			core.QueryOptions{K: k, Pref: tops.ConvexQuadratic(tau)}
	case 3:
		lambda := 0.5 + rng.Float64()*1.5
		return fmt.Sprintf(`{"k":%d,"tau":%v,"pref":"exp","lambda":%v}`, k, tau, lambda),
			core.QueryOptions{K: k, Pref: tops.ExpDecay(tau, lambda)}
	default:
		f, seed := 8*rng.Intn(5), rng.Uint64()>>12
		return fmt.Sprintf(`{"k":%d,"tau":%v,"fm":true,"f":%d,"seed":%d}`, k, tau, f, seed),
			core.QueryOptions{K: k, Pref: tops.Binary(tau), UseFM: true, F: f, Seed: seed}
	}
}

// TestRouterDifferentialOracle is the cross-process gate run in-process:
// an interleaved random workload of queries (FM-sketch ones included) and
// §6 mutations through the router tier (real HTTP members shipping their
// covers) must answer bit-exactly what a single engine answers over the
// same history.
func TestRouterDifferentialOracle(t *testing.T) {
	const seed, n = 1201, 3
	twinInst, city := buildFixture(t, seed)
	twin := engineTwin(t, twinInst)

	shards := make([][]string, n)
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		shards[j] = []string{ts.URL}
	}
	r, err := New(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()
	client := rts.Client()

	// Live bookkeeping for drawing valid mutations.
	g := city.Graph
	siteSet := make(map[int64]bool)
	var siteList []int64
	for _, v := range twinInst.Sites {
		siteSet[int64(v)] = true
		siteList = append(siteList, int64(v))
	}
	liveTrajs := make([]int32, twinInst.M())
	for i := range liveTrajs {
		liveTrajs[i] = int32(i)
	}
	extraStore, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 20, Seed: seed + 99})
	if err != nil {
		t.Fatal(err)
	}
	var extras []*trajectory.Trajectory
	extraStore.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) { extras = append(extras, tr) })

	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	mutations, queries, fms := 0, 0, 0
	for round := 0; round < 60; round++ {
		if round > 4 && rng.Float64() < 0.35 {
			mutations++
			switch op := rng.Intn(4); {
			case op == 0: // add_site
				v := int64(rng.Intn(g.NumNodes()))
				for siteSet[v] {
					v = (v + 1) % int64(g.NumNodes())
				}
				status, body := postJSON(t, client, rts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, v))
				if status != http.StatusOK {
					t.Fatalf("round %d add_site(%d): %d %s", round, v, status, body)
				}
				if err := twin.AddSite(roadnet.NodeID(v)); err != nil {
					t.Fatal(err)
				}
				siteSet[v] = true
				siteList = append(siteList, v)
			case op == 1 && len(siteList) > 10: // delete_site
				i := rng.Intn(len(siteList))
				v := siteList[i]
				status, body := postJSON(t, client, rts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_site","node":%d}`, v))
				if status != http.StatusOK {
					t.Fatalf("round %d delete_site(%d): %d %s", round, v, status, body)
				}
				if err := twin.DeleteSite(roadnet.NodeID(v)); err != nil {
					t.Fatal(err)
				}
				delete(siteSet, v)
				siteList[i] = siteList[len(siteList)-1]
				siteList = siteList[:len(siteList)-1]
			case op == 2 && len(extras) > 0: // add_trajectory
				tr := extras[len(extras)-1]
				extras = extras[:len(extras)-1]
				nodes, _ := json.Marshal(tr.Nodes)
				status, body := postJSON(t, client, rts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_trajectory","nodes":%s}`, nodes))
				if status != http.StatusOK {
					t.Fatalf("round %d add_trajectory: %d %s", round, status, body)
				}
				var ack struct {
					TrajectoryID *int32 `json:"trajectory_id"`
				}
				if err := json.Unmarshal(body, &ack); err != nil || ack.TrajectoryID == nil {
					t.Fatalf("round %d add_trajectory ack: %s (%v)", round, body, err)
				}
				ttr, err := trajectory.New(twin.Graph(), tr.Nodes)
				if err != nil {
					t.Fatal(err)
				}
				tid, err := twin.AddTrajectory(ttr)
				if err != nil {
					t.Fatal(err)
				}
				if int32(tid) != *ack.TrajectoryID {
					t.Fatalf("round %d: router assigned trajectory id %d, twin %d", round, *ack.TrajectoryID, tid)
				}
				liveTrajs = append(liveTrajs, int32(tid))
			case len(liveTrajs) > 5: // delete_trajectory
				i := rng.Intn(len(liveTrajs))
				tid := liveTrajs[i]
				status, body := postJSON(t, client, rts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_trajectory","id":%d}`, tid))
				if status != http.StatusOK {
					t.Fatalf("round %d delete_trajectory(%d): %d %s", round, tid, status, body)
				}
				if err := twin.DeleteTrajectory(trajectory.ID(tid)); err != nil {
					t.Fatal(err)
				}
				liveTrajs[i] = liveTrajs[len(liveTrajs)-1]
				liveTrajs = liveTrajs[:len(liveTrajs)-1]
			}
			continue
		}
		queries++
		wire, opts := drawQuery(rng)
		if opts.UseFM {
			fms++
		}
		status, body := postJSON(t, client, rts.URL+"/v1/query", wire)
		if status != http.StatusOK {
			t.Fatalf("round %d query %s: %d %s", round, wire, status, body)
		}
		var got wireAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := twin.Query(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, fmt.Sprintf("round %d (%s)", round, wire), got, want)
		want.Release()
	}
	if mutations < 5 || queries < 20 || fms < 3 {
		t.Fatalf("workload drift: %d mutations, %d queries (%d fm)", mutations, queries, fms)
	}
}

// TestRouterFailoverToReplicaMidWorkload pins the read-path failover: a
// shard's primary dies, and the router retries the query against that
// shard's next URL (a replica member) with answers still bit-exact.
func TestRouterFailoverToReplicaMidWorkload(t *testing.T) {
	const seed, n = 1301, 2
	twinInst, _ := buildFixture(t, seed)
	twin := engineTwin(t, twinInst)

	shards := make([][]string, n)
	var shard1Primary *httptest.Server
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		shards[j] = []string{ts.URL}
		if j == 1 {
			shard1Primary = ts
			repInst, _ := buildFixture(t, seed)
			rts, _ := memberServer(t, repInst, j, n)
			shards[j] = append(shards[j], rts.URL)
		}
	}
	r, err := New(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	check := func(label string) {
		t.Helper()
		wire, opts := drawQuery(rng)
		status, body := postJSON(t, rts.Client(), rts.URL+"/v1/query", wire)
		if status != http.StatusOK {
			t.Fatalf("%s query %s: %d %s", label, wire, status, body)
		}
		var got wireAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := twin.Query(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, label+" "+wire, got, want)
		want.Release()
	}
	for i := 0; i < 5; i++ {
		check(fmt.Sprintf("pre-failover %d", i))
	}
	shard1Primary.Close() // shard 1's primary dies mid-workload
	for i := 0; i < 5; i++ {
		check(fmt.Sprintf("post-failover %d", i))
	}

	var stats struct {
		Failovers uint64 `json:"failovers"`
	}
	resp, err := rts.Client().Get(rts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Failovers == 0 {
		t.Fatal("router reported no failovers after its shard-1 primary died")
	}
}

// TestRouterValidation pins the boot and request validation: mixed-up
// shard maps are rejected, query bodies are judged by topsserve's own
// decoder, an instance without representatives is refused as topsserve
// refuses it, and topology re-points are verified against the member's own
// metadata.
func TestRouterValidation(t *testing.T) {
	const seed, n = 1401, 2
	var urls []string
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		urls = append(urls, ts.URL)
	}

	// Swapped shard map: member metadata exposes the mismatch at boot.
	if _, err := New(Options{Shards: [][]string{{urls[1]}, {urls[0]}}}); err == nil {
		t.Fatal("router accepted a shard map pointing position 0 at shard 1")
	}
	// Truncated topology: a 2-shard member behind a 1-shard map.
	if _, err := New(Options{Shards: [][]string{{urls[0]}}}); err == nil {
		t.Fatal("router accepted a 1-entry map over a 2-shard topology")
	}

	r, err := New(Options{Shards: [][]string{{urls[0]}, {urls[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	// The router answers every body exactly as a member's own /v1/query
	// does: the bodies topsserve refuses (τ = 0 and τ past the 10⁴ limit
	// among them, which a router-side decoder once let through) are 400 at
	// both tiers, and an fm query is answered at both.
	for _, body := range []string{
		`{"k":0,"tau":1.0}`,
		`{"k":3,"tau":1.0,"bogus":1}`,
		`{"k":3,"tau":0}`,
		`{"k":3,"tau":20000}`,
		`{"k":3,"tau":1.0,"pref":"linear","fm":true}`,
		`{"k":3,"tau":1.0,"f":8}`,
		`{"k":3,"tau":1.0,"fm":true,"f":32,"seed":5}`,
	} {
		status, resp := postJSON(t, rts.Client(), rts.URL+"/v1/query", body)
		want, _ := postJSON(t, rts.Client(), urls[0]+"/v1/query", body)
		if status != want {
			t.Errorf("%s: router answered %d (%s), topsserve %d", body, status, resp, want)
		}
	}

	// An instance left without representatives is a client-resolvable
	// error at every tier; the router used to answer it 200 with no sites.
	{
		const sites = 6
		var few []string
		for j := 0; j < n; j++ {
			inst, _ := buildFixtureSites(t, seed, sites)
			ts, _ := memberServer(t, inst, j, n)
			few = append(few, ts.URL)
		}
		fr, err := New(Options{Shards: [][]string{{few[0]}, {few[1]}}})
		if err != nil {
			t.Fatal(err)
		}
		frs := httptest.NewServer(fr)
		defer frs.Close()
		inst, _ := buildFixtureSites(t, seed, sites)
		for _, v := range inst.Sites {
			if status, body := postJSON(t, frs.Client(), frs.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_site","node":%d}`, v)); status != http.StatusOK {
				t.Fatalf("delete_site(%d): %d %s", v, status, body)
			}
		}
		status, body := postJSON(t, frs.Client(), frs.URL+"/v1/query", `{"k":3,"tau":1.0}`)
		want, wantBody := postJSON(t, frs.Client(), few[0]+"/v1/query", `{"k":3,"tau":1.0}`)
		var got, ref errorResponse
		_ = json.Unmarshal(body, &got)
		_ = json.Unmarshal(wantBody, &ref)
		if status != http.StatusBadRequest || status != want || got.Code != ref.Code {
			t.Fatalf("query over no representatives: router %d %s, topsserve %d %s", status, body, want, wantBody)
		}
	}

	// Re-point validation: shard 0 cannot be re-pointed at a member that
	// serves shard 1.
	status, _ := postJSON(t, rts.Client(), rts.URL+"/v1/topology", fmt.Sprintf(`{"shard":0,"primary":%q}`, urls[1]))
	if status != http.StatusBadRequest {
		t.Fatalf("mismatched re-point status %d, want 400", status)
	}
	// A correct re-point is accepted and reflected in GET /v1/topology.
	status, body := postJSON(t, rts.Client(), rts.URL+"/v1/topology", fmt.Sprintf(`{"shard":1,"primary":%q}`, urls[1]))
	if status != http.StatusOK {
		t.Fatalf("valid re-point status %d: %s", status, body)
	}
	resp, err := rts.Client().Get(rts.URL + "/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Shards []struct {
			Shard     int    `json:"shard"`
			ActiveURL string `json:"active_url"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(topo.Shards) != 2 || topo.Shards[1].ActiveURL != urls[1] {
		t.Fatalf("topology after re-point: %+v", topo)
	}

	// /v1/ingest is a documented non-feature of the router tier: the
	// stateless router cannot map-match, so it answers 501 with a stable
	// code instead of silently ingesting into one shard.
	status, body = postJSON(t, rts.Client(), rts.URL+"/v1/ingest", `{"points":[{"x":1,"y":2}]}`)
	if status != http.StatusNotImplemented {
		t.Fatalf("router ingest status %d (%s), want 501", status, body)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "not_implemented" {
		t.Fatalf("router ingest error body %s (err %v), want code not_implemented", body, err)
	}
}

// TestRouterBatch pins /v1/query/batch: per-item isolation and the same
// bit-exact answers as the single-engine twin.
func TestRouterBatch(t *testing.T) {
	const seed, n = 1501, 2
	twinInst, _ := buildFixture(t, seed)
	twin := engineTwin(t, twinInst)
	shards := make([][]string, n)
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		shards[j] = []string{ts.URL}
	}
	r, err := New(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	status, body := postJSON(t, rts.Client(), rts.URL+"/v1/query/batch",
		`{"queries":[{"k":4,"tau":0.9},{"k":0,"tau":1.0},{"k":6,"tau":2.5,"pref":"linear"}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var out struct {
		Results []struct {
			Result *wireAnswer `json:"result"`
			Error  string      `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d batch results, want 3", len(out.Results))
	}
	if out.Results[1].Error == "" || out.Results[1].Result != nil {
		t.Fatalf("bad item not isolated: %+v", out.Results[1])
	}
	ctx := context.Background()
	for i, opts := range []core.QueryOptions{
		{K: 4, Pref: tops.Binary(0.9)},
		{},
		{K: 6, Pref: tops.Linear(2.5)},
	} {
		if i == 1 {
			continue
		}
		if out.Results[i].Result == nil {
			t.Fatalf("batch item %d failed: %s", i, out.Results[i].Error)
		}
		want, err := twin.Query(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, fmt.Sprintf("batch item %d", i), *out.Results[i].Result, want)
		want.Release()
	}
}

// TestRepointRejectsOtherTopology: a re-point target must be shard j of
// this very topology — the shard count and index, and also the ladder, the
// check the router runs on every member at boot (a member of another
// partition rule is refused by the same check; see shard's
// TestLadderAgreementAndDerivation). The member below reports shard 1 of 2,
// and the router used to accept it (200) and then answer from a mismatched
// index.
func TestRepointRejectsOtherTopology(t *testing.T) {
	const seed, n = 1701, 2
	var urls []string
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		urls = append(urls, ts.URL)
	}
	r, err := New(Options{Shards: [][]string{{urls[0]}, {urls[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()
	for name, opts := range map[string]shard.Options{
		"another ladder": {Shards: n, Build: core.Options{Gamma: 0.5, TauMin: 0.3}},
	} {
		inst, _ := buildFixture(t, seed)
		ts, _ := serveMember(t, inst, 1, opts)
		if status, body := postJSON(t, rts.Client(), rts.URL+"/v1/topology", fmt.Sprintf(`{"shard":1,"primary":%q}`, ts.URL)); status != http.StatusBadRequest {
			t.Errorf("re-point at a shard-1 member with %s: %d %s, want 400", name, status, body)
		}
	}
	if topo := r.topology(); topo[1].ActiveURL != urls[1] || len(topo[1].URLs) != 1 {
		t.Fatalf("shard 1 after the refused re-points: %+v", topo[1])
	}
}

// asWire is an in-process answer in the /v1/query response shape.
func asWire(res *core.QueryResult) wireAnswer {
	w := wireAnswer{
		EstimatedUtility: res.EstimatedUtility, EstimatedCovered: res.EstimatedCovered,
		InstanceUsed: res.InstanceUsed, NumRepresentatives: res.NumRepresentatives,
	}
	for i, v := range res.Sites {
		w.Sites = append(w.Sites, int64(v))
		w.SiteIDs = append(w.SiteIDs, int32(res.SiteIDs[i]))
	}
	return w
}

// TestInProcessCoreMatchesRouter drives one seeded op stream — queries of
// every preference kind and fm ones, add_site, delete_site, add_trajectory
// and delete_trajectory — through shard.Sharded over in-process members and
// through the router over HTTP members, and holds both to a single engine
// bit for bit: one routing core, two kinds of conn.
func TestInProcessCoreMatchesRouter(t *testing.T) {
	const seed, n = 1801, 3
	t.Run(shard.PartitionRule, func(t *testing.T) {
		opts := shard.Options{Shards: n, Build: fixtureBuild}
		refInst, city := buildFixture(t, seed)
		ref := engineTwin(t, refInst)
		inInst, _ := buildFixture(t, seed)
		in, err := shard.Build(inInst, opts)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]string, n)
		for j := range shards {
			inst, _ := buildFixture(t, seed)
			m, err := shard.BuildMember(inst, j, opts)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(m, server.Options{Member: m})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			shards[j] = []string{ts.URL}
		}
		r, err := New(Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rts := httptest.NewServer(r)
		defer rts.Close()

		extraStore, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 12, Seed: seed + 99})
		if err != nil {
			t.Fatal(err)
		}
		var extras []*trajectory.Trajectory
		extraStore.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) { extras = append(extras, tr) })

		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		kinds := make(map[string]int)
		for round := 0; round < 70; round++ {
			if round > 3 && rng.Float64() < 0.4 {
				var u wal.Update
				switch op := rng.Intn(4); {
				case op == 0:
					v := roadnet.NodeID(rng.Intn(refInst.G.NumNodes()))
					for _, ok := refInst.SiteIDOf(v); ok; _, ok = refInst.SiteIDOf(v) {
						v = (v + 1) % roadnet.NodeID(refInst.G.NumNodes())
					}
					u = wal.Update{Op: "add_site", Node: int64(v)}
				case op == 1 && len(refInst.Sites) > 10:
					u = wal.Update{Op: "delete_site", Node: int64(refInst.Sites[rng.Intn(len(refInst.Sites))])}
				case op == 2 && len(extras) > 0:
					u = wal.Update{Op: "add_trajectory"}
					for _, v := range extras[0].Nodes {
						u.Nodes = append(u.Nodes, int64(v))
					}
					extras = extras[1:]
				default: // possibly a dead id: every tier must refuse it alike
					u = wal.Update{Op: "delete_trajectory", ID: int64(rng.Intn(refInst.M()))}
				}
				raw, _ := json.Marshal(u)
				status, body := postJSON(t, rts.Client(), rts.URL+"/v1/update", string(raw))
				inAck, inErr := in.Update(ctx, u)
				m, refErr := u.Mutation(ref.Graph())
				var applied wal.Applied
				if refErr == nil {
					applied, refErr = ref.Apply(m)
				}
				if (refErr == nil) != (status == http.StatusOK) || (refErr == nil) != (inErr == nil) {
					t.Fatalf("round %d %s: engine %v, router %d %s, in-process %v", round, raw, refErr, status, body, inErr)
				}
				if refErr != nil {
					// The member's own verdict, re-emitted: 409 conflict.
					var env errorResponse
					if err := json.Unmarshal(body, &env); status != http.StatusConflict || err != nil || env.Code != "conflict" {
						t.Fatalf("round %d %s: router answered %d %s, want the member's 409 conflict", round, raw, status, body)
					}
					continue
				}
				kinds[u.Op]++
				if u.Op == "add_trajectory" {
					var ack wal.UpdateAck
					if err := json.Unmarshal(body, &ack); err != nil || ack.TrajectoryID == nil || inAck.TrajectoryID == nil ||
						trajectory.ID(*ack.TrajectoryID) != applied.IDs[0] || trajectory.ID(*inAck.TrajectoryID) != applied.IDs[0] {
						t.Fatalf("round %d: trajectory ids: engine %d, router %s, in-process %v", round, applied.IDs[0], body, inAck.TrajectoryID)
					}
				}
				continue
			}
			wire, q := drawQuery(rng)
			if q.UseFM {
				kinds["fm"]++
			} else {
				kinds[q.Pref.Name]++
			}
			want, err := ref.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := in.Query(ctx, q)
			if err != nil {
				t.Fatalf("round %d in-process %s: %v", round, wire, err)
			}
			sameAnswer(t, fmt.Sprintf("round %d in-process %s", round, wire), asWire(got), want)
			status, body := postJSON(t, rts.Client(), rts.URL+"/v1/query", wire)
			if status != http.StatusOK {
				t.Fatalf("round %d router %s: %d %s", round, wire, status, body)
			}
			var routed wireAnswer
			if err := json.Unmarshal(body, &routed); err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("round %d router %s", round, wire), routed, want)
		}
		for _, k := range []string{"binary", "linear", "convex-quadratic", "exp-decay", "fm", "add_site", "delete_site", "add_trajectory", "delete_trajectory"} {
			if kinds[k] == 0 {
				t.Errorf("the stream never ran %s: %v", k, kinds)
			}
		}
	})
}

// TestRouterErrorsMatchMember sends the same bad requests to a member and
// to the router over it: both tiers must answer the same status and code,
// the envelope API.md documents for any endpoint. The router once answered
// a wrong method with code bad_request, and silently cut an oversized body
// to its prefix and answered it 200.
func TestRouterErrorsMatchMember(t *testing.T) {
	const seed, n = 1401, 2
	var urls []string
	for j := 0; j < n; j++ {
		memInst, _ := buildFixture(t, seed)
		ts, _ := memberServer(t, memInst, j, n)
		urls = append(urls, ts.URL)
	}
	r, err := New(Options{Shards: [][]string{{urls[0]}, {urls[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	// A well-formed query followed by 2 MiB of JSON whitespace: a reader
	// that truncates at 1 MiB sees a valid body.
	big := `{"k":3,"tau":1.0}` + strings.Repeat(" ", 2<<20)
	send := func(base, method, path, body string) (int, string) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, base+path, err)
		}
		defer resp.Body.Close()
		var env errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Code
	}
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed, server.CodeMethodNotAllowed},
		{http.MethodGet, "/v1/query/batch", "", http.StatusMethodNotAllowed, server.CodeMethodNotAllowed},
		{http.MethodGet, "/v1/update", "", http.StatusMethodNotAllowed, server.CodeMethodNotAllowed},
		{http.MethodPost, "/v1/query", big, http.StatusRequestEntityTooLarge, server.CodeTooLarge},
		{http.MethodPost, "/v1/query/batch", big, http.StatusRequestEntityTooLarge, server.CodeTooLarge},
		{http.MethodPost, "/v1/update", big, http.StatusRequestEntityTooLarge, server.CodeTooLarge},
	} {
		label := tc.method + " " + tc.path
		if len(tc.body) > 0 {
			label += " (2 MiB)"
		}
		mStatus, mCode := send(urls[0], tc.method, tc.path, tc.body)
		rStatus, rCode := send(rts.URL, tc.method, tc.path, tc.body)
		if mStatus != tc.status || mCode != tc.code {
			t.Errorf("%s: member answered %d %q, want %d %q", label, mStatus, mCode, tc.status, tc.code)
		}
		if rStatus != mStatus || rCode != mCode {
			t.Errorf("%s: router answered %d %q, member %d %q", label, rStatus, rCode, mStatus, mCode)
		}
	}
}

// TestMemberOwningNothingGetsNoCoverFetch empties one member: every site it
// owns is deleted through the routing core, so it holds no representative
// at any rung and owns no cluster. Queries still answer bit-exactly, in
// process and through the router, and the routing core skips the empty
// member's cover fetch — it sees no /v1/shard/cover request at all.
func TestMemberOwningNothingGetsNoCoverFetch(t *testing.T) {
	const seed, n, empty = 1801, 3, 2
	opts := shard.Options{Shards: n, Build: fixtureBuild}
	refInst, _ := buildFixture(t, seed)
	ref := engineTwin(t, refInst)
	inInst, _ := buildFixture(t, seed)
	in, err := shard.Build(inInst, opts)
	if err != nil {
		t.Fatal(err)
	}
	covers := make([]atomic.Int64, n)
	shards := make([][]string, n)
	for j := range shards {
		inst, _ := buildFixture(t, seed)
		m, err := shard.BuildMember(inst, j, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(m, server.Options{Member: m})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/shard/cover" {
				covers[j].Add(1)
			}
			srv.ServeHTTP(w, req)
		}))
		t.Cleanup(ts.Close)
		shards[j] = []string{ts.URL}
	}
	r, err := New(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()

	ctx := context.Background()
	var doomed []roadnet.NodeID
	for _, v := range refInst.Sites {
		if shard.Of(v, n) == empty {
			doomed = append(doomed, v)
		}
	}
	if len(doomed) == 0 || len(doomed) == len(refInst.Sites) {
		t.Fatalf("member %d owns %d of %d sites", empty, len(doomed), len(refInst.Sites))
	}
	for _, v := range doomed {
		u := wal.Update{Op: "delete_site", Node: int64(v)}
		raw, _ := json.Marshal(u)
		if status, body := postJSON(t, rts.Client(), rts.URL+"/v1/update", string(raw)); status != http.StatusOK {
			t.Fatalf("router delete_site(%d): %d %s", v, status, body)
		}
		if _, err := in.Update(ctx, u); err != nil {
			t.Fatalf("in-process delete_site(%d): %v", v, err)
		}
		if err := ref.DeleteSite(v); err != nil {
			t.Fatal(err)
		}
	}
	for j := range covers {
		covers[j].Store(0)
	}

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 24; round++ {
		wire, q := drawQuery(rng)
		want, err := ref.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Query(ctx, q)
		if err != nil {
			t.Fatalf("round %d in-process %s: %v", round, wire, err)
		}
		sameAnswer(t, fmt.Sprintf("round %d in-process %s", round, wire), asWire(got), want)
		status, body := postJSON(t, rts.Client(), rts.URL+"/v1/query", wire)
		if status != http.StatusOK {
			t.Fatalf("round %d router %s: %d %s", round, wire, status, body)
		}
		var routed wireAnswer
		if err := json.Unmarshal(body, &routed); err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, fmt.Sprintf("round %d router %s", round, wire), routed, want)
	}
	for j := range covers {
		if got := covers[j].Load(); (j == empty) != (got == 0) {
			t.Errorf("member %d served %d cover fetches", j, got)
		}
	}
}
