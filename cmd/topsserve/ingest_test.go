package main

// Ingest differential: a generated GPS feed streamed through a real
// topsserve child's POST /v1/ingest must leave the served state
// bit-identical to an in-process twin that map-matched the same traces
// and applied them directly via AddTrajectories with the same window
// grouping — including the LSN accounting (one WAL record per window).
// The ingested state must then survive SIGKILL → WAL recovery and
// replicate to a follower. This is the live-ingestion closure of
// TestKillRecoverDifferential.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netclus"
)

const ingestBatch = 4

// ingestTraces emits clean-ish GPS traces from the preset's own
// trajectories (IDs [from, to)) — guaranteed on-network, so every line
// should match.
func ingestTraces(t *testing.T, inst *netclus.Instance, from, to int) []netclus.GPSTrace {
	t.Helper()
	var traces []netclus.GPSTrace
	for i := from; i < to; i++ {
		tr := inst.Trajs.Get(netclus.TrajectoryID(i))
		if tr == nil {
			t.Fatalf("preset trajectory %d missing", i)
		}
		traces = append(traces, netclus.EmitGPS(inst.G, tr,
			netclus.GPSConfig{SampleEveryKm: 0.15, NoiseSigmaKm: 0.01, Seed: int64(9000 + i)}))
	}
	return traces
}

func ndjson(traces []netclus.GPSTrace) string {
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

// streamIngest POSTs the feed and returns the verdict lines; every line
// must carry a trajectory id (the feed is clean by construction).
func streamIngest(t *testing.T, url, feed string) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", strings.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	matched := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v netclus.IngestVerdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		if v.Code != "" {
			t.Fatalf("line %d rejected (%s): %s", v.Line, v.Code, v.Err)
		}
		if v.TrajectoryID == nil {
			t.Fatalf("line %d verdict missing trajectory_id", v.Line)
		}
		matched++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return matched
}

// applyTwinIngest mirrors the server pipeline on the in-process twin:
// match each trace with the same (default) matcher config and apply in
// the same windows of ingestBatch.
func applyTwinIngest(t *testing.T, twin netclus.DurableEngine, m *netclus.Matcher, traces []netclus.GPSTrace) {
	t.Helper()
	var window []*netclus.Trajectory
	flush := func() {
		if len(window) == 0 {
			return
		}
		if _, err := twin.AddTrajectories(window); err != nil {
			t.Fatalf("twin AddTrajectories: %v", err)
		}
		window = nil
	}
	for i, trc := range traces {
		tr, err := m.Match(trc)
		if err != nil {
			t.Fatalf("twin match %d: %v", i, err)
		}
		window = append(window, tr)
		if len(window) == ingestBatch {
			flush()
		}
	}
	flush()
}

func ingestStatsz(t *testing.T, url string) netclus.IngestStats {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Ingest *netclus.IngestStats `json:"ingest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Ingest == nil {
		t.Fatal("/statsz has no ingest block")
	}
	return *body.Ingest
}

func TestIngestKillRecoverDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve processes; skipped under -short")
	}
	bin := buildBinary(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	walDir := filepath.Join(t.TempDir(), "wal")

	twin, inst := twinEngine(t)
	matcher := netclus.NewMatcher(inst.G, netclus.MatchConfig{})
	phase1 := ingestTraces(t, inst, 0, 10)
	phase2 := ingestTraces(t, inst, 10, 14)
	ingestArgs := []string{"-ingest-workers", "2", "-ingest-batch", fmt.Sprint(ingestBatch)}

	// Phase 1: boot a durable primary, stream the feed, check the LSN
	// arithmetic (one record per window) and bit-identical answers.
	a := startChild(t, bin, freePort(t), append(ingestArgs,
		"-cache", cacheDir, "-wal-dir", walDir, "-fsync", "always")...)
	a.waitHealthy(t, 5*time.Minute)
	baseLSN := a.statszLSN(t) // epoch record

	if matched := streamIngest(t, a.url(), ndjson(phase1)); matched != len(phase1) {
		t.Fatalf("phase 1 matched %d/%d traces", matched, len(phase1))
	}
	applyTwinIngest(t, twin, matcher, phase1)
	wantBatches := uint64((len(phase1) + ingestBatch - 1) / ingestBatch)
	if lsn := a.statszLSN(t); lsn != baseLSN+wantBatches {
		t.Fatalf("primary LSN %d, want %d (%d windows over base %d)", lsn, baseLSN+wantBatches, wantBatches, baseLSN)
	}
	st := ingestStatsz(t, a.url())
	if st.TracesIn != uint64(len(phase1)) || st.Matched != uint64(len(phase1)) || st.Rejected != 0 {
		t.Fatalf("primary ingest stats %+v, want %d in / %d matched / 0 rejected", st, len(phase1), len(phase1))
	}
	for _, q := range []struct {
		k   int
		tau float64
	}{{3, 0.8}, {6, 2.2}} {
		queryBoth(t, a.url(), twin, q.k, q.tau)
	}
	preKillLSN := a.statszLSN(t)
	a.kill(t)

	// Phase 2: recover on the same WAL dir — the ingested trajectories
	// must come back from the log, then accept more live traffic.
	b := startChild(t, bin, freePort(t), append(ingestArgs,
		"-cache", cacheDir, "-wal-dir", walDir, "-fsync", "always")...)
	b.waitHealthy(t, 2*time.Minute)
	if lsn := b.statszLSN(t); lsn != preKillLSN {
		t.Fatalf("recovered LSN %d, want %d", lsn, preKillLSN)
	}
	for _, q := range []struct {
		k   int
		tau float64
	}{{3, 0.8}, {6, 2.2}} {
		queryBoth(t, b.url(), twin, q.k, q.tau)
	}
	if matched := streamIngest(t, b.url(), ndjson(phase2)); matched != len(phase2) {
		t.Fatalf("phase 2 matched %d/%d traces", matched, len(phase2))
	}
	applyTwinIngest(t, twin, matcher, phase2)
	lsn2 := b.statszLSN(t)
	for _, q := range []struct {
		k   int
		tau float64
	}{{4, 1.1}, {8, 2.8}} {
		queryBoth(t, b.url(), twin, q.k, q.tau)
	}

	// Phase 3: a follower tails the primary and converges to the same
	// ingested state; its own /v1/ingest bounces with 403 read_only.
	f := startChild(t, bin, freePort(t), append(ingestArgs,
		"-cache", cacheDir, "-follow", b.url(), "-follow-poll", "100ms")...)
	f.waitHealthy(t, 2*time.Minute)
	deadline := time.Now().Add(60 * time.Second)
	for f.statszLSN(t) != lsn2 {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, primary at %d", f.statszLSN(t), lsn2)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, q := range []struct {
		k   int
		tau float64
	}{{4, 1.1}, {8, 2.8}} {
		queryBoth(t, f.url(), twin, q.k, q.tau)
	}
	resp, err := http.Post(f.url()+"/v1/ingest", "application/x-ndjson", strings.NewReader(ndjson(phase2[:1])))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower accepted an ingest stream: %d %s", resp.StatusCode, raw)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != "read_only" {
		t.Fatalf("follower ingest error %s, want code read_only", raw)
	}
}
