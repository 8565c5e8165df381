package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/mapmatch"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

func testCity(t testing.TB) *gen.City {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 500, SpanKm: 10, Jitter: 0.2, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func buildEngine(t testing.TB, city *gen.City) *engine.Engine {
	t.Helper()
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 20, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: 60, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tops.NewInstance(city.Graph, store, sites)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.Build(inst, core.Options{Gamma: 0.75, TauMin: 0.4, TauMax: 6.4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// genTraces emits n GPS traces from fresh trajectories over the city.
func genTraces(t testing.TB, city *gen.City, n int, seed int64) []trajectory.GPSTrace {
	t.Helper()
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]trajectory.GPSTrace, 0, n)
	for i := 0; i < store.Len(); i++ {
		traces = append(traces, gen.EmitGPS(city.Graph, store.Get(trajectory.ID(i)),
			gen.GPSConfig{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01, Seed: seed + int64(i)}))
	}
	return traces
}

// ndjsonPlanar renders traces in the planar x/y wire form.
func ndjsonPlanar(traces []trajectory.GPSTrace) string {
	var sb strings.Builder
	for i, tr := range traces {
		sb.WriteString(fmt.Sprintf(`{"id":"t%d","points":[`, i))
		for j, p := range tr.Points {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(fmt.Sprintf(`{"x":%g,"y":%g,"t":%g}`, p.Pos.X, p.Pos.Y, p.Time))
		}
		sb.WriteString("]}\n")
	}
	return sb.String()
}

// memSink records batches and assigns sequential IDs.
type memSink struct {
	batches [][]*trajectory.Trajectory
	next    trajectory.ID
	fail    error
}

func (s *memSink) AddTrajectories(_ context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	ids := make([]trajectory.ID, len(trs))
	for i := range trs {
		ids[i] = s.next
		s.next++
	}
	s.batches = append(s.batches, trs)
	return ids, nil
}

func runIngest(t *testing.T, in *Ingestor, sink Sink, feed string) []Verdict {
	t.Helper()
	var got []Verdict
	err := in.Run(context.Background(), strings.NewReader(feed), sink, func(vs []Verdict) error {
		got = append(got, vs...)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got
}

// TestIngestVerdictsInOrder streams a mixed feed — valid traces
// interleaved with every rejection class — and checks verdict order,
// codes, echoes, and counters.
func TestIngestVerdictsInOrder(t *testing.T) {
	city := testCity(t)
	in := New(city.Graph, Options{Workers: 4, MaxBatch: 3})
	traces := genTraces(t, city, 2, 77)

	var feed strings.Builder
	feed.WriteString(ndjsonPlanar(traces[:1]))                                                // line 1: ok
	feed.WriteString("{not json}\n")                                                          // line 2: bad_json
	feed.WriteString(`{"id":"e","points":[]}` + "\n")                                         // line 3: empty_trace
	feed.WriteString("\n")                                                                    // blank: skipped, no verdict
	feed.WriteString(`{"points":[{"x":1}]}` + "\n")                                           // line 5: bad_point (missing y)
	feed.WriteString(`{"points":[{"x":1,"y":2,"lat":3,"lon":4}]}` + "\n")                     // line 6: bad_point (mixed)
	feed.WriteString(strings.Replace(ndjsonPlanar(traces[1:2]), `"id":"t0"`, `"id":"t1"`, 1)) // line 7: ok

	sink := &memSink{}
	got := runIngest(t, in, sink, feed.String())

	wantCodes := map[int]string{1: "", 2: CodeBadJSON, 3: CodeEmptyTrace, 5: CodeBadPoint, 6: CodeBadPoint, 7: ""}
	if len(got) != len(wantCodes) {
		t.Fatalf("got %d verdicts, want %d: %+v", len(got), len(wantCodes), got)
	}
	prevLine := 0
	for _, v := range got {
		if v.Line <= prevLine {
			t.Fatalf("verdicts out of order: %+v", got)
		}
		prevLine = v.Line
		want, okLine := wantCodes[v.Line]
		if !okLine {
			t.Fatalf("unexpected verdict line %d", v.Line)
		}
		if v.Code != want {
			t.Errorf("line %d: code %q, want %q (%s)", v.Line, v.Code, want, v.Err)
		}
		if want == "" && v.TrajectoryID == nil {
			t.Errorf("line %d: matched line missing trajectory_id", v.Line)
		}
		if want != "" && v.TrajectoryID != nil {
			t.Errorf("line %d: rejected line carries trajectory_id", v.Line)
		}
	}
	if got[0].ID != "t0" || got[len(got)-1].ID != "t1" {
		t.Errorf("client id echo lost: %+v", got)
	}

	st := in.Stats()
	if st.TracesIn != 6 || st.Matched != 2 || st.Rejected != 4 {
		t.Errorf("stats = %+v, want 6 in / 2 matched / 4 rejected", st)
	}
	if st.Points == 0 || st.Batches == 0 {
		t.Errorf("stats missing point/batch accounting: %+v", st)
	}
}

// TestIngestBatchBoundaries pins the deterministic windowing: MaxBatch
// lines per AddTrajectories mutation, remainder flushed at EOF.
func TestIngestBatchBoundaries(t *testing.T) {
	city := testCity(t)
	in := New(city.Graph, Options{Workers: 2, MaxBatch: 2})
	traces := genTraces(t, city, 5, 91)
	sink := &memSink{}
	runIngest(t, in, sink, ndjsonPlanar(traces))
	var sizes []int
	for _, b := range sink.batches {
		sizes = append(sizes, len(b))
	}
	if want := []int{2, 2, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes = %v, want %v", sizes, want)
	}
	if st := in.Stats(); st.Batches != 3 {
		t.Fatalf("batches counter = %d, want 3", st.Batches)
	}
}

// TestIngestLatLonProjection checks the geodetic wire form: the same
// trace sent as lat/lon (inverse-projected around the origin) must match
// to the identical node walk as its planar twin.
func TestIngestLatLonProjection(t *testing.T) {
	city := testCity(t)
	const oLat, oLon = 39.9, 116.4
	in := New(city.Graph, Options{Workers: 2, OriginLat: oLat, OriginLon: oLon})
	traces := genTraces(t, city, 3, 55)

	// Inverse of geo.ProjectLatLon's equirectangular projection.
	const deg = math.Pi / 180
	const earthRadiusKm = 6371.0088
	var feed strings.Builder
	for i, tr := range traces {
		feed.WriteString(fmt.Sprintf(`{"id":"g%d","points":[`, i))
		for j, p := range tr.Points {
			if j > 0 {
				feed.WriteByte(',')
			}
			latDeg := oLat + p.Pos.Y/(earthRadiusKm*deg)
			lonDeg := oLon + p.Pos.X/(earthRadiusKm*deg*math.Cos(oLat*deg))
			feed.WriteString(fmt.Sprintf(`{"lat":%.12f,"lon":%.12f,"t":%g}`, latDeg, lonDeg, p.Time))
		}
		feed.WriteString("]}\n")
	}

	geoSink := &memSink{}
	runIngest(t, in, geoSink, feed.String())
	planarSink := &memSink{}
	in2 := New(city.Graph, Options{Workers: 2})
	runIngest(t, in2, planarSink, ndjsonPlanar(traces))

	if len(geoSink.batches) != len(planarSink.batches) {
		t.Fatalf("batch count differs: %d vs %d", len(geoSink.batches), len(planarSink.batches))
	}
	for bi := range geoSink.batches {
		if len(geoSink.batches[bi]) != len(planarSink.batches[bi]) {
			t.Fatalf("batch %d size differs", bi)
		}
		for ti := range geoSink.batches[bi] {
			g, p := geoSink.batches[bi][ti], planarSink.batches[bi][ti]
			if !reflect.DeepEqual(g.Nodes, p.Nodes) {
				t.Errorf("batch %d trace %d: lat/lon walk %v != planar walk %v", bi, ti, g.Nodes, p.Nodes)
			}
		}
	}
}

// TestIngestApplyFailure checks that an engine rejection turns the
// window's matched lines into apply_failed verdicts and stops the stream.
func TestIngestApplyFailure(t *testing.T) {
	city := testCity(t)
	in := New(city.Graph, Options{Workers: 2})
	traces := genTraces(t, city, 2, 13)
	sink := &memSink{fail: fmt.Errorf("log wedged")}
	var got []Verdict
	err := in.Run(context.Background(), strings.NewReader(ndjsonPlanar(traces)), sink, func(vs []Verdict) error {
		got = append(got, vs...)
		return nil
	})
	if err == nil {
		t.Fatal("Run must surface the apply failure")
	}
	if len(got) != 2 {
		t.Fatalf("got %d verdicts, want 2 (affected lines still reported)", len(got))
	}
	for _, v := range got {
		if v.Code != CodeApplyFailed {
			t.Errorf("line %d: code %q, want %q", v.Line, v.Code, CodeApplyFailed)
		}
	}
}

// TestIngestCancelled checks that a cancelled context stops the stream.
func TestIngestCancelled(t *testing.T) {
	city := testCity(t)
	in := New(city.Graph, Options{Workers: 2})
	traces := genTraces(t, city, 2, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := in.Run(ctx, strings.NewReader(ndjsonPlanar(traces)), &memSink{}, func([]Verdict) error { return nil })
	if err != context.Canceled {
		t.Fatalf("Run on cancelled context: got %v, want context.Canceled", err)
	}
}

// TestIngestLineTooLong checks the oversized-line verdict and stream stop.
func TestIngestLineTooLong(t *testing.T) {
	city := testCity(t)
	in := New(city.Graph, Options{Workers: 1, MaxLineBytes: 256})
	big := `{"points":[` + strings.Repeat(`{"x":1,"y":1},`, 100) + `{"x":1,"y":1}]}` + "\n"
	var got []Verdict
	err := in.Run(context.Background(), strings.NewReader(big), &memSink{}, func(vs []Verdict) error {
		got = append(got, vs...)
		return nil
	})
	if err == nil {
		t.Fatal("Run must fail on an oversized line")
	}
	if len(got) != 1 || got[0].Code != CodeLineTooLong {
		t.Fatalf("verdicts = %+v, want one %s", got, CodeLineTooLong)
	}
}

// TestIngestDifferential is the core bit-identical check: streaming a
// generated feed through Run with an engine-backed sink must leave the
// engine in exactly the state produced by matching the same traces
// directly and applying them with the same window grouping — identical
// Stats (LSN accounting included) and identical index snapshot bytes.
func TestIngestDifferential(t *testing.T) {
	city := testCity(t)
	const maxBatch = 4
	traces := genTraces(t, city, 10, 201)
	feed := ndjsonPlanar(traces)

	// Streamed side.
	streamed := buildEngine(t, city)
	in := New(city.Graph, Options{Workers: 4, MaxBatch: maxBatch})
	sink := SinkFunc(func(_ context.Context, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
		return streamed.AddTrajectories(trs)
	})
	runIngest(t, in, sink, feed)

	// Direct side: same matcher config, same windows, direct applies.
	direct := buildEngine(t, city)
	m := mapmatch.NewMatcher(city.Graph, mapmatch.Config{})
	var window []*trajectory.Trajectory
	applied := 0
	flush := func() {
		if len(window) == 0 {
			return
		}
		if _, err := direct.AddTrajectories(window); err != nil {
			t.Fatal(err)
		}
		window = nil
	}
	for i, trc := range traces {
		tr, err := m.Match(trc)
		if err != nil {
			t.Fatalf("direct match %d: %v", i, err)
		}
		window = append(window, tr)
		applied++
		if applied%maxBatch == 0 {
			flush()
		}
	}
	flush()

	if a, b := streamed.LSN(), direct.LSN(); a != b {
		t.Fatalf("LSN diverged: streamed %d vs direct %d", a, b)
	}
	sa, _ := json.Marshal(streamed.Stats())
	sb, _ := json.Marshal(direct.Stats())
	// Query counters are zero on both sides; mutation counters must agree.
	if !bytes.Equal(sa, sb) {
		t.Fatalf("Stats diverged:\nstreamed %s\ndirect   %s", sa, sb)
	}
	var snapA, snapB bytes.Buffer
	if _, err := streamed.Snapshot(&snapA); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Snapshot(&snapB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA.Bytes(), snapB.Bytes()) {
		t.Fatalf("index snapshots diverged: %d vs %d bytes", snapA.Len(), snapB.Len())
	}
}
