package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"netclus/internal/gen"
	"netclus/internal/ingest"
	"netclus/internal/trajectory"
)

// ingestFixtureCity regenerates the same city buildFixture(seed) built,
// so emitted traces lie on the served graph.
func ingestFixtureCity(t testing.TB, seed int64) *gen.City {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 500, SpanKm: 10, Jitter: 0.2,
		OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func ingestFeed(t testing.TB, city *gen.City, n int, seed int64) string {
	t.Helper()
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < store.Len(); i++ {
		trace := gen.EmitGPS(city.Graph, store.Get(trajectory.ID(i)),
			gen.GPSConfig{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01, Seed: seed + int64(i)})
		sb.WriteString(fmt.Sprintf(`{"id":"t%d","points":[`, i))
		for j, p := range trace.Points {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(fmt.Sprintf(`{"x":%g,"y":%g,"t":%g}`, p.Pos.X, p.Pos.Y, p.Time))
		}
		sb.WriteString("]}\n")
	}
	return sb.String()
}

func postNDJSON(t testing.TB, url, body string) (*http.Response, []ingest.Verdict) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var verdicts []ingest.Verdict
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var v ingest.Verdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		verdicts = append(verdicts, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, verdicts
}

// TestIngestHTTP streams a feed end to end: verdicts come back per line
// with engine-assigned IDs, the engine's trajectory count grows, the
// ingested trajectories are queryable state, and /statsz gains the ingest
// block plus the route counters.
func TestIngestHTTP(t *testing.T) {
	const seed = 311
	ts, srv, eng, idx := newTestServer(t, seed, Options{Ingest: &ingest.Options{Workers: 2, MaxBatch: 4}})
	city := ingestFixtureCity(t, seed)
	before := eng.Stats().TrajAdds

	resp, verdicts := postNDJSON(t, ts.URL, ingestFeed(t, city, 6, seed+100))
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if len(verdicts) != 6 {
		t.Fatalf("got %d verdicts, want 6: %+v", len(verdicts), verdicts)
	}
	matched := 0
	for _, v := range verdicts {
		if v.Code == "" {
			matched++
			if v.TrajectoryID == nil {
				t.Fatalf("verdict without id or code: %+v", v)
			}
			if got := idx.TopsInstance().Trajs.Get(*v.TrajectoryID); got == nil {
				t.Errorf("trajectory %d not in served store after ingest", *v.TrajectoryID)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no traces matched")
	}
	if after := eng.Stats().TrajAdds; after != before+uint64(matched) {
		t.Errorf("TrajAdds %d -> %d, want +%d", before, after, matched)
	}

	st := srv.Stats()
	if st.Ingest == nil {
		t.Fatal("/statsz missing ingest block")
	}
	if st.Ingest.TracesIn != 6 || st.Ingest.Matched != uint64(matched) {
		t.Errorf("ingest stats = %+v", st.Ingest)
	}
	if _, ok := st.Routes["/v1/ingest"]; !ok {
		t.Error("/statsz missing /v1/ingest route counters")
	}
}

// TestIngestHTTPVerdictCodes checks per-line rejection codes ride back on
// the same stream as successes.
func TestIngestHTTPVerdictCodes(t *testing.T) {
	const seed = 313
	ts, _, _, _ := newTestServer(t, seed, Options{Ingest: &ingest.Options{Workers: 1}})
	city := ingestFixtureCity(t, seed)
	feed := ingestFeed(t, city, 1, seed+7) +
		"garbage\n" +
		`{"points":[]}` + "\n" +
		`{"points":[{"x":1}]}` + "\n"
	_, verdicts := postNDJSON(t, ts.URL, feed)
	if len(verdicts) != 4 {
		t.Fatalf("got %d verdicts: %+v", len(verdicts), verdicts)
	}
	wantCodes := []string{"", ingest.CodeBadJSON, ingest.CodeEmptyTrace, ingest.CodeBadPoint}
	for i, v := range verdicts {
		if v.Code != wantCodes[i] {
			t.Errorf("line %d: code %q, want %q", v.Line, v.Code, wantCodes[i])
		}
	}
}

// TestIngestReadOnlyAndMethod checks role and method gating.
func TestIngestReadOnlyAndMethod(t *testing.T) {
	ts, _, _, _ := newTestServer(t, 317, Options{ReadOnly: true, Ingest: &ingest.Options{Workers: 1}})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || e.Code != CodeReadOnly {
		t.Fatalf("read-only ingest: status %d code %q", resp.StatusCode, e.Code)
	}

	get, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest: status %d", get.StatusCode)
	}
}

// TestIngestDisabled checks the route 404s when Options.Ingest is nil.
func TestIngestDisabled(t *testing.T) {
	ts, _, _, _ := newTestServer(t, 331, Options{})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestIngestEmptyFeed checks an empty body answers 200 with no verdicts.
func TestIngestEmptyFeed(t *testing.T) {
	ts, _, _, _ := newTestServer(t, 337, Options{Ingest: &ingest.Options{Workers: 1}})
	resp, verdicts := postNDJSON(t, ts.URL, "")
	if resp.StatusCode != http.StatusOK || len(verdicts) != 0 {
		t.Fatalf("empty feed: status %d, %d verdicts", resp.StatusCode, len(verdicts))
	}
}

// TestIngestFullDuplexStreaming is the regression test for the
// closed-body bug: verdicts flush per window while the client is still
// sending, which on an HTTP/1.x server requires full-duplex mode —
// without EnableFullDuplex the first flush closes the unread request
// body and every later window dies with "invalid Read on closed Body".
// The client here forces the interleaving: it sends window 1, waits for
// its verdicts, and only then sends window 2.
func TestIngestFullDuplexStreaming(t *testing.T) {
	const seed = 317
	ts, _, _, _ := newTestServer(t, seed, Options{Ingest: &ingest.Options{Workers: 1, MaxBatch: 2}})
	city := ingestFixtureCity(t, seed)
	lines := strings.SplitAfter(strings.TrimSuffix(ingestFeed(t, city, 4, seed+100), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("feed has %d lines, want 4", len(lines))
	}

	pr, pw := io.Pipe()
	gate := make(chan struct{})
	go func() {
		defer pw.Close()
		io.WriteString(pw, lines[0]+lines[1])
		<-gate
		io.WriteString(pw, lines[2]+lines[3])
	}()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	readVerdict := func(wantLine int) {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("verdict stream ended before line %d: %v", wantLine, sc.Err())
		}
		var v ingest.Verdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict %q: %v", sc.Text(), err)
		}
		if v.Line != wantLine || v.Code != "" || v.TrajectoryID == nil {
			t.Fatalf("verdict %+v, want matched line %d (code %q)", v, wantLine, v.Code)
		}
	}
	// Window 1's verdicts must arrive while window 2 is still unsent.
	readVerdict(1)
	readVerdict(2)
	close(gate)
	readVerdict(3)
	readVerdict(4)
	if sc.Scan() {
		t.Fatalf("unexpected trailing line %q", sc.Text())
	}
}

// flushCounter is a full-duplex ResponseWriter that records, at each flush,
// how many verdict lines the response held.
type flushCounter struct {
	*httptest.ResponseRecorder
	lines []int
}

func (f *flushCounter) Flush() {
	f.lines = append(f.lines, bytes.Count(f.Body.Bytes(), []byte("\n")))
	f.ResponseRecorder.Flush()
}

func (f *flushCounter) EnableFullDuplex() error { return nil }

// TestIngestFlushesOncePerWindow: a window's verdicts go out in one flush,
// after the window commits — not one flush per line. Seven lines at
// MaxBatch 3, one of them undecodable, are three windows, three commits and
// three flushes, after lines 3, 6 and 7.
func TestIngestFlushesOncePerWindow(t *testing.T) {
	const seed = 331
	_, srv, _, _ := newTestServer(t, seed, Options{Ingest: &ingest.Options{Workers: 1, MaxBatch: 3}})
	lines := strings.SplitAfter(strings.TrimSuffix(ingestFeed(t, ingestFixtureCity(t, seed), 6, seed+100), "\n"), "\n")
	feed := lines[0] + "{not json\n" + strings.Join(lines[1:], "")
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(feed)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := srv.ing.Stats().Batches; got != 3 {
		t.Fatalf("%d windows committed, want 3", got)
	}
	if !slices.Equal(w.lines, []int{3, 6, 7}) {
		t.Fatalf("flushed with %v verdict lines on the wire, want one flush per window: [3 6 7]", w.lines)
	}
}
