package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// buildInstance generates a small deterministic dataset (same shape as the
// engine package's fixture; duplicated because test helpers do not cross
// packages).
func buildInstance(t testing.TB, seed int64) *tops.Instance {
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

// fixtureBuild is the index configuration of every fixture here.
var fixtureBuild = core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4}

// buildFixture builds a NETCLUS index over buildInstance's dataset.
func buildFixture(t testing.TB, seed int64) (*core.Index, *tops.Instance) {
	t.Helper()
	inst := buildInstance(t, seed)
	idx, err := core.Build(inst, fixtureBuild)
	if err != nil {
		t.Fatal(err)
	}
	return idx, inst
}

// newTestServer boots an in-process serving stack over a fresh fixture.
func newTestServer(t testing.TB, seed int64, opts Options) (*httptest.Server, *Server, *engine.Engine, *core.Index) {
	t.Helper()
	idx, _ := buildFixture(t, seed)
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, eng, idx
}

func postJSON(t testing.TB, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, data
}

func TestQueryEndpointMatchesEngine(t *testing.T) {
	ts, _, eng, _ := newTestServer(t, 311, Options{})
	code, data := postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"k":5,"tau":0.8}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	want, err := eng.Query(context.Background(), core.QueryOptions{K: 5, Pref: tops.Binary(0.8)})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "k=5", data, want)
}

// assertSameAnswer fails unless the /v1/query response body carries want
// bit for bit: sites, site ids, utility, coverage, instance, representatives.
func assertSameAnswer(t *testing.T, label string, body []byte, want *core.QueryResult) {
	t.Helper()
	var got QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v (%s)", label, err, body)
	}
	same := got.EstimatedUtility == want.EstimatedUtility &&
		got.EstimatedCovered == want.EstimatedCovered &&
		got.InstanceUsed == want.InstanceUsed &&
		got.NumRepresentatives == want.NumRepresentatives &&
		len(got.Sites) == len(want.Sites) && len(got.SiteIDs) == len(want.SiteIDs)
	for i := 0; same && i < len(want.Sites); i++ {
		same = got.Sites[i] == int64(want.Sites[i]) && got.SiteIDs[i] == int32(want.SiteIDs[i])
	}
	if !same {
		t.Errorf("%s: HTTP answer %+v does not match the reference %+v", label, got, want)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	ts, _, _, _ := newTestServer(t, 313, Options{})
	cases := []string{
		``,
		`{`,
		`not json`,
		`{"k":0,"tau":0.8}`,
		`{"k":-3,"tau":0.8}`,
		`{"k":5}`,
		`{"k":5,"tau":-1}`,
		`{"k":5,"tau":0}`,
		`{"k":5,"tau":1e999}`,
		`{"k":1000000000,"tau":0.8}`,
		`{"k":5,"tau":0.8,"pref":"cubic"}`,
		`{"k":5,"tau":0.8,"lambda":2}`,
		`{"k":5,"tau":0.8,"pref":"linear","fm":true}`,
		`{"k":5,"tau":0.8,"timeout_ms":-4}`,
		`{"k":5,"tau":0.8,"bogus":1}`,
		`{"k":5,"tau":0.8}{"k":1,"tau":1}`,
	}
	for _, body := range cases {
		code, data := postJSON(t, ts.Client(), ts.URL+"/v1/query", body)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, code, data)
		}
	}
	// Method filtering.
	resp, err := ts.Client().Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, _, _, _ := newTestServer(t, 317, Options{})
	code, data := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch",
		`{"queries":[{"k":1,"tau":0.8},{"k":5,"tau":0.8},{"k":0,"tau":0.8}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[1].Error != "" {
		t.Fatalf("valid items errored: %+v", out.Results)
	}
	if out.Results[2].Error == "" {
		t.Fatal("k=0 item did not error")
	}
	if out.Results[0].Result.EstimatedUtility > out.Results[1].Result.EstimatedUtility {
		t.Fatal("k=1 beats k=5: submodularity violated over the wire")
	}
	// Whole-batch validation errors.
	for _, body := range []string{`{"queries":[]}`, `{}`, `{"queries":[{"k":1,"tau":0.8}],"timeout_ms":-1}`} {
		if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", body); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
	}
	// Per-item timeout_ms degrades only its own slot.
	code, data = postJSON(t, ts.Client(), ts.URL+"/v1/query/batch",
		`{"queries":[{"k":1,"tau":0.8,"timeout_ms":5},{"k":2,"tau":0.8}]}`)
	if code != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", code, data)
	}
	out = BatchResponse{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error == "" || out.Results[1].Error != "" {
		t.Fatalf("per-item timeout handling wrong: %+v", out.Results)
	}
}

func TestUpdateEndpoints(t *testing.T) {
	ts, _, _, idx := newTestServer(t, 331, Options{})
	inst := idx.TopsInstance()
	// Find a non-site node.
	var free int64 = -1
	for v := 0; v < inst.G.NumNodes(); v++ {
		if _, ok := inst.SiteIDOf(roadnet.NodeID(v)); !ok {
			free = int64(v)
			break
		}
	}
	if free < 0 {
		t.Skip("all nodes are sites")
	}
	code, data := postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, free))
	if code != http.StatusOK {
		t.Fatalf("add_site: %d %s", code, data)
	}
	// Duplicate add conflicts.
	if code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, free)); code != http.StatusConflict {
		t.Fatalf("duplicate add_site: %d, want 409", code)
	}
	if code, data = postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_site","node":%d}`, free)); code != http.StatusOK {
		t.Fatalf("delete_site: %d %s", code, data)
	}
	// Trajectory round trip: clone an existing trajectory's node sequence.
	nodes := inst.Trajs.Get(0).Nodes
	payload, _ := json.Marshal(map[string]any{"op": "add_trajectory", "nodes": nodes})
	code, data = postJSON(t, ts.Client(), ts.URL+"/v1/update", string(payload))
	if code != http.StatusOK {
		t.Fatalf("add_trajectory: %d %s", code, data)
	}
	var ur updateResponse
	if err := json.Unmarshal(data, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.TrajectoryID == nil {
		t.Fatal("add_trajectory returned no id")
	}
	if code, data = postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_trajectory","id":%d}`, *ur.TrajectoryID)); code != http.StatusOK {
		t.Fatalf("delete_trajectory: %d %s", code, data)
	}
	if code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_trajectory","id":%d}`, *ur.TrajectoryID)); code != http.StatusConflict {
		t.Fatalf("double delete_trajectory: %d, want 409", code)
	}
	// Structural validation.
	for _, body := range []string{`{}`, `{"op":"nuke"}`, `{"op":"add_site","node":-1}`, `{"op":"add_trajectory"}`, `{"op":"add_site","node":1,"id":2}`} {
		if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/update", body); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
	}
}

// TestCheckpointEndpointRoundTrip downloads /v1/checkpoint from a server
// whose site set a delete_site has changed and loads it against the graph
// alone: the checkpoint carries the mutated dataset the index was stamped
// with, so it reloads and answers as the live engine does.
func TestCheckpointEndpointRoundTrip(t *testing.T) {
	ts, _, eng, idx := newTestServer(t, 337, Options{})
	site := idx.TopsInstance().Sites[0]
	if code, data := postJSON(t, ts.Client(), ts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_site","node":%d}`, site)); code != http.StatusOK {
		t.Fatalf("delete_site: %d %s", code, data)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, br, err := wal.ReadCheckpoint(bytes.NewReader(data), idx.TopsInstance().G)
	if err != nil {
		t.Fatalf("downloaded checkpoint does not read: %v", err)
	}
	loaded, err := core.ReadIndex(br, inst)
	if err != nil {
		t.Fatalf("downloaded checkpoint does not load: %v", err)
	}
	q := core.QueryOptions{K: 5, Pref: tops.Binary(0.8)}
	a, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.EstimatedUtility != b.EstimatedUtility || !slices.Equal(a.Sites, b.Sites) {
		t.Fatalf("checkpoint answers differently: %v %v vs %v %v", a.Sites, a.EstimatedUtility, b.Sites, b.EstimatedUtility)
	}
}

func TestHealthzDraining(t *testing.T) {
	ts, srv, _, _ := newTestServer(t, 347, Options{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
	srv.SetDraining(true)
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining healthz: %d %q", resp.StatusCode, h.Status)
	}
}

// coverCounts is the served engine's cover-cache counters.
type coverCounts struct {
	hits, misses, swept, revalidated uint64
	entries                          int
}

// lookalikeSeed is the fixture the served engine and its sequential twin
// are built over.
const lookalikeSeed = 349

// TestLookalikeQueriesShareOneCoverFill pins the property /v1/query leans
// on for having no admission window: concurrent queries that differ only
// in k pay for ONE cover refresh — the cover cache's singleflight
// (core.coverFor) — whether that refresh appends a trajectory update to
// the cached cover or re-sweeps the one row of a moved representative,
// and every one of them still answers exactly what a sequential reference
// engine answers.
func TestLookalikeQueriesShareOneCoverFill(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		idx, _ := buildFixture(t, lookalikeSeed)
		served, err := engine.New(idx, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkLookalikesShareCover(t, served)
	})
}

// checkLookalikesShareCover serves `served` (built over lookalikeSeed) on
// HTTP and fires two bursts of look-alike queries — one at a cover a
// trajectory add and delete just left behind, one at covers a deleted
// representative just made stale by one row — checking the cache's
// counters, and the answers against a sequential single engine kept in
// step with the mutations.
func checkLookalikesShareCover(t *testing.T, served *engine.Engine) {
	caches := func() coverCounts {
		st := served.Stats()
		return coverCounts{st.CoverHits, st.CoverMisses, st.CoverRowsSwept, st.CoverRevalidated, st.CoverEntries}
	}
	srv, err := New(served, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	idx, inst := buildFixture(t, lookalikeSeed)
	twin, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	update := func(body string) updateResponse {
		t.Helper()
		code, data := postJSON(t, client, ts.URL+"/v1/update", body)
		if code != http.StatusOK {
			t.Fatalf("update %s: %d %s", body, code, data)
		}
		var ack updateResponse
		if err := json.Unmarshal(data, &ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}
	// burst fires n concurrent queries that differ only in k and returns
	// the cache's counter movement; every answer must be the twin's.
	const n = 32
	burst := func(tau float64) coverCounts {
		t.Helper()
		before := caches()
		bodies := make([][]byte, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				code, data := postJSON(t, client, ts.URL+"/v1/query", fmt.Sprintf(`{"k":%d,"tau":%v}`, 1+i%8, tau))
				if code != http.StatusOK {
					t.Errorf("query %d: status %d: %s", i, code, data)
				}
				bodies[i] = data
			}(i)
		}
		close(start)
		wg.Wait()
		for i, body := range bodies {
			k := 1 + i%8
			want, err := twin.Query(context.Background(), core.QueryOptions{K: k, Pref: tops.Binary(tau)})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, fmt.Sprintf("query %d (k=%d, tau=%v)", i, k, tau), body, want)
		}
		delta := caches()
		delta.hits -= before.hits
		delta.misses -= before.misses
		delta.swept -= before.swept
		delta.revalidated -= before.revalidated
		return delta
	}
	warm := func(tau float64) {
		t.Helper()
		if code, data := postJSON(t, client, ts.URL+"/v1/query", fmt.Sprintf(`{"k":3,"tau":%v}`, tau)); code != http.StatusOK {
			t.Fatalf("warm-up query: %d %s", code, data)
		}
	}

	// Append: warm the cache, then add and delete a trajectory. The cover
	// stays, and the burst patches it once — the added id's entries appended
	// and dropped again, no row swept — while every other query hits.
	warm(0.8)
	if caches().entries == 0 {
		t.Fatal("the cache holds no cover after the warm-up query")
	}
	nodes, err := json.Marshal(inst.Trajs.Get(0).Nodes)
	if err != nil {
		t.Fatal(err)
	}
	added := update(fmt.Sprintf(`{"op":"add_trajectory","nodes":%s}`, nodes))
	update(fmt.Sprintf(`{"op":"delete_trajectory","id":%d}`, *added.TrajectoryID))
	tid, err := twin.AddTrajectory(inst.Trajs.Get(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.DeleteTrajectory(tid); err != nil {
		t.Fatal(err)
	}
	if caches().entries == 0 {
		t.Fatal("a trajectory update emptied the cover cache")
	}
	if d := burst(0.8); d.misses != 0 || d.swept != 0 || d.hits != n || d.revalidated != 1 {
		t.Errorf("after a trajectory update: %d concurrent look-alike queries cost %d misses sweeping %d rows, %d hits and %d patches, want %d hits sharing one patch",
			n, d.misses, d.swept, d.hits, d.revalidated, n)
	}

	// Patch: on a rung whose clusters hold several sites, delete one
	// cluster's representative and leave it deleted. Its runner-up takes
	// over at another RepDr, so exactly one row is stale: the burst costs
	// one miss sweeping one row.
	const tau = 3.0
	warm(tau)
	rep := roadnet.InvalidNode
	for _, cl := range idx.Instances[idx.InstanceFor(tau)].Clusters {
		sites := 0
		for _, v := range cl.Members {
			if _, ok := inst.SiteIDOf(v); ok {
				sites++
			}
		}
		if sites >= 2 {
			rep = cl.Rep
			break
		}
	}
	if rep == roadnet.InvalidNode {
		t.Fatalf("no cluster with two sites on the rung of tau=%v", tau)
	}
	update(fmt.Sprintf(`{"op":"delete_site","node":%d}`, rep))
	if err := twin.DeleteSite(rep); err != nil {
		t.Fatal(err)
	}
	if d := burst(tau); d.misses != 1 || d.swept != 1 || d.hits != n-1 {
		t.Errorf("patched cache: %d concurrent look-alike queries cost %d misses sweeping %d rows and %d hits, want one one-row miss", n, d.misses, d.swept, d.hits)
	}
}

// ctxBoundEngine is an Engine whose query paths only wait for their context
// to end and then report what ended it.
type ctxBoundEngine struct {
	Engine
	ended chan error
}

func (e *ctxBoundEngine) Query(ctx context.Context, _ core.QueryOptions) (*core.QueryResult, error) {
	<-ctx.Done()
	e.ended <- ctx.Err()
	return nil, ctx.Err()
}

// QueryBatch is held to the same contract, so a server that answered
// /v1/query through engine batches would be caught here as well.
func (e *ctxBoundEngine) QueryBatch(ctx context.Context, qs []core.QueryOptions) []engine.BatchItem {
	<-ctx.Done()
	e.ended <- ctx.Err()
	out := make([]engine.BatchItem, len(qs))
	for i := range out {
		out[i].Err = ctx.Err()
	}
	return out
}

// TestQueryDeadlineReachesEngine pins requestCtx's promise on the default
// serving path: timeout_ms is not only the HTTP answer's deadline, it
// cancels the engine work itself.
func TestQueryDeadlineReachesEngine(t *testing.T) {
	idx, _ := buildFixture(t, 359)
	real, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := &ctxBoundEngine{Engine: real, ended: make(chan error, 1)}
	srv, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, env, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/query", `{"k":1,"tau":0.8,"timeout_ms":20}`)
	if status != http.StatusGatewayTimeout || env.Code != CodeTimeout {
		t.Fatalf("expired query answered %d %q, want 504 %q", status, env.Code, CodeTimeout)
	}
	select {
	case err := <-eng.ended:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("engine's context ended with %v, want its deadline", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the request's deadline never reached the engine: its query is still running")
	}
}

// TestServeEndToEndRace is the whole-stack adversarial test: concurrent
// queries (single and batch), §6 updates, live checkpoints and stats polls
// hammer one in-process server while the race detector watches, and every
// stats sample must be monotone against the previous one.
func TestServeEndToEndRace(t *testing.T) {
	ts, srv, _, idx := newTestServer(t, 353, Options{})
	client := ts.Client()
	client.Timeout = 30 * time.Second
	iters := 60
	if testing.Short() {
		iters = 25
	}

	var wg sync.WaitGroup
	// Single-query workers (some deliberately invalid → 400).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + w)))
			for i := 0; i < iters; i++ {
				k := 1 + rng.Intn(8)
				tau := 0.4 + rng.Float64()*3
				body := fmt.Sprintf(`{"k":%d,"tau":%.3f}`, k, tau)
				wantOK := true
				if i%7 == 3 { // malformed draw
					body = fmt.Sprintf(`{"k":%d,"tau":-1}`, k)
					wantOK = false
				}
				code, data := postJSON(t, client, ts.URL+"/v1/query", body)
				if wantOK && code != http.StatusOK {
					t.Errorf("query %q: %d %s", body, code, data)
				}
				if !wantOK && code != http.StatusBadRequest {
					t.Errorf("bad query %q: %d, want 400", body, code)
				}
			}
		}(w)
	}
	// Batch worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			code, data := postJSON(t, client, ts.URL+"/v1/query/batch",
				`{"queries":[{"k":2,"tau":0.8},{"k":4,"tau":1.6},{"k":6,"tau":0.8}]}`)
			if code != http.StatusOK {
				t.Errorf("batch: %d %s", code, data)
			}
		}
	}()
	// Update worker: flip one site on and off, stream trajectories in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		inst := idx.TopsInstance()
		var free int64 = -1
		for v := 0; v < inst.G.NumNodes(); v++ {
			if _, ok := inst.SiteIDOf(roadnet.NodeID(v)); !ok {
				free = int64(v)
				break
			}
		}
		nodes := inst.Trajs.Get(1).Nodes
		payload, _ := json.Marshal(map[string]any{"op": "add_trajectory", "nodes": nodes})
		for i := 0; i < iters/2; i++ {
			if free >= 0 {
				if code, data := postJSON(t, client, ts.URL+"/v1/update", fmt.Sprintf(`{"op":"add_site","node":%d}`, free)); code != http.StatusOK {
					t.Errorf("add_site: %d %s", code, data)
				}
				if code, data := postJSON(t, client, ts.URL+"/v1/update", fmt.Sprintf(`{"op":"delete_site","node":%d}`, free)); code != http.StatusOK {
					t.Errorf("delete_site: %d %s", code, data)
				}
			}
			if i%5 == 0 {
				if code, data := postJSON(t, client, ts.URL+"/v1/update", string(payload)); code != http.StatusOK {
					t.Errorf("add_trajectory: %d %s", code, data)
				}
			}
		}
	}()
	// Checkpoint worker: live checkpoints must stream while traffic runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, err := client.Post(ts.URL+"/v1/checkpoint", "", nil)
			if err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || n == 0 {
				t.Errorf("checkpoint stream: %d bytes, %v", n, err)
			}
		}
	}()
	// Stats poller: every counter must be monotone non-decreasing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev statszResponse
		for i := 0; i < iters; i++ {
			resp, err := client.Get(ts.URL + "/statsz")
			if err != nil {
				t.Errorf("statsz: %v", err)
				return
			}
			var cur statszResponse
			err = json.NewDecoder(resp.Body).Decode(&cur)
			resp.Body.Close()
			if err != nil {
				t.Errorf("statsz decode: %v", err)
				return
			}
			checkMonotone(t, prev, cur)
			prev = cur
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	st := srv.Stats()
	if st.Engine.Queries+st.Engine.BatchQueries == 0 {
		t.Fatal("engine served no queries")
	}
	if st.Routes["/v1/query"].Requests == 0 || st.Routes["/v1/update"].Requests == 0 {
		t.Fatalf("route counters empty: %+v", st.Routes)
	}
	if st.Routes["/v1/query"].Errors4xx == 0 {
		t.Error("deliberately malformed queries were never counted as 4xx")
	}
}

// checkMonotone asserts no counter in cur regressed against prev (torn
// reads across the atomic blocks would show up as regressions under load).
func checkMonotone(t *testing.T, prev, cur statszResponse) {
	t.Helper()
	type pair struct {
		name     string
		old, new uint64
	}
	pairs := []pair{
		{"engine.queries", prev.Engine.Queries, cur.Engine.Queries},
		{"engine.batch_queries", prev.Engine.BatchQueries, cur.Engine.BatchQueries},
		{"engine.batches", prev.Engine.Batches, cur.Engine.Batches},
		{"engine.updates", prev.Engine.Updates, cur.Engine.Updates},
		{"engine.errors", prev.Engine.Errors, cur.Engine.Errors},
		{"engine.cover_hits", prev.Engine.CoverHits, cur.Engine.CoverHits},
		{"engine.cover_misses", prev.Engine.CoverMisses, cur.Engine.CoverMisses},
		{"engine.cover_revalidated", prev.Engine.CoverRevalidated, cur.Engine.CoverRevalidated},
		{"engine.cover_rows_swept", prev.Engine.CoverRowsSwept, cur.Engine.CoverRowsSwept},
	}
	for route, rp := range prev.Routes {
		rc, ok := cur.Routes[route]
		if !ok {
			t.Errorf("route %s vanished from statsz", route)
			continue
		}
		pairs = append(pairs,
			pair{route + ".requests", rp.Requests, rc.Requests},
			pair{route + ".errors_4xx", rp.Errors4xx, rc.Errors4xx},
			pair{route + ".errors_5xx", rp.Errors5xx, rc.Errors5xx},
		)
	}
	for _, p := range pairs {
		if p.new < p.old {
			t.Errorf("counter %s regressed: %d -> %d", p.name, p.old, p.new)
		}
	}
}
