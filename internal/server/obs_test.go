// Observability surface tests: /metrics exposition validity, trace-id
// round-tripping through headers and error envelopes, and the slow-query
// structured record.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"netclus/internal/obs"
)

// lockedBuffer makes a bytes.Buffer safe to read from the test goroutine
// while handler goroutines log into it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// scrapeMetrics fetches /metrics, checks the envelope, and returns the body.
func scrapeMetrics(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// queryLatencySamples sums netclus_query_seconds_count over its two series
// (cache="hit" and cache="miss").
func queryLatencySamples(t *testing.T, text string) uint64 {
	t.Helper()
	var total uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "netclus_query_seconds_count{") {
			continue
		}
		n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		total += n
	}
	return total
}

// TestMetricsExposition exercises the serving path and then asserts the
// /metrics answer parses under the strict text-format grammar and carries
// the families a dashboard needs (including a derivable latency histogram
// with one sample per answered /v1/query).
func TestMetricsExposition(t *testing.T) {
	single, _, _, _ := newTestServer(t, 331, Options{})
	t.Run("single", func(t *testing.T) {
		ts, client := single, single.Client()
		before := queryLatencySamples(t, scrapeMetrics(t, client, ts.URL))

		// Populate counters and the query histograms: two identical queries
		// (miss then cover-cache hit) and one client error, which never
		// reaches the engine.
		const answered = 2
		for i := 0; i < answered; i++ {
			if code, data := postJSON(t, client, ts.URL+"/v1/query", `{"k":3,"tau":0.8}`); code != http.StatusOK {
				t.Fatalf("query %d: status %d: %s", i, code, data)
			}
		}
		postJSON(t, client, ts.URL+"/v1/query", `{"k":0}`)

		text := scrapeMetrics(t, client, ts.URL)
		if err := obs.ValidateExposition(text); err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, text)
		}
		for _, want := range []string{
			`netclus_build_info{`,
			`netclus_uptime_seconds{`,
			`netclus_http_requests_total{`,
			`netclus_engine_queries_total{`,
			`netclus_cover_cache_revalidations_total{`,
			`netclus_cover_cache_rows_swept_total{`,
			`netclus_query_seconds_bucket{`,
			`netclus_query_seconds_count{`,
			`netclus_query_seconds_sum{`,
			`role="primary"`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition is missing %q", want)
			}
		}
		// The histogram must have observed the queries above, so p50/p99 are
		// derivable: a +Inf bucket, and a sample per answered query.
		if !strings.Contains(text, `le="+Inf"`) {
			t.Error("histogram exposition has no +Inf bucket")
		}
		if got := queryLatencySamples(t, text) - before; got != answered {
			t.Errorf("query latency histogram recorded %d samples for %d answered queries", got, answered)
		}
	})
}

// TestTraceIDRoundTrip asserts the edge contract: a valid client-supplied
// X-Netclus-Trace-Id is echoed on the response and stamped into error
// envelopes; a missing or malformed one is replaced by a freshly minted id.
func TestTraceIDRoundTrip(t *testing.T) {
	ts, _, _, _ := newTestServer(t, 337, Options{})
	client := ts.Client()
	supplied := obs.NewTraceID()

	// Success path: header echoed verbatim.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"k":3,"tau":0.8}`))
	req.Header.Set(obs.TraceHeader, supplied)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != supplied {
		t.Fatalf("trace header = %q, want the supplied %q", got, supplied)
	}

	// Error path: same id in the header and the envelope's trace_id field.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"k":0}`))
	req.Header.Set(obs.TraceHeader, supplied)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != supplied {
		t.Fatalf("error trace header = %q, want %q", got, supplied)
	}
	var env struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope is not JSON: %v\n%s", err, body)
	}
	if env.TraceID != supplied {
		t.Fatalf("envelope trace_id = %q, want %q", env.TraceID, supplied)
	}

	// Malformed ids never propagate: the edge mints a fresh valid one.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"k":3,"tau":0.8}`))
	req.Header.Set(obs.TraceHeader, "not a trace id")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get(obs.TraceHeader)
	if got == "not a trace id" || !obs.ValidTraceID(got) {
		t.Fatalf("malformed supplied id produced trace %q, want a minted valid id", got)
	}
}

// TestSlowQueryLog wires a 1ns threshold so every query is over budget and
// asserts the structured record carries the trace id and query shape.
func TestSlowQueryLog(t *testing.T) {
	var buf lockedBuffer
	logger, err := obs.NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, _ := newTestServer(t, 341, Options{Logger: logger, SlowQuery: time.Nanosecond})
	supplied := obs.NewTraceID()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"k":3,"tau":0.8}`))
	req.Header.Set(obs.TraceHeader, supplied)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	out := buf.String()
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "slow query") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no slow-query record emitted; log output:\n%s", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query record is not JSON: %v\n%s", err, line)
	}
	if rec["trace_id"] != supplied {
		t.Errorf("record trace_id = %v, want %q", rec["trace_id"], supplied)
	}
	if rec["k"] != float64(3) {
		t.Errorf("record k = %v, want 3", rec["k"])
	}
	if rec["component"] != "server" {
		t.Errorf("record component = %v, want server", rec["component"])
	}
	if _, ok := rec["elapsed_ms"]; !ok {
		t.Error("record has no elapsed_ms")
	}
	// The server's first query fills its cover cold: every row is swept.
	if swept, _ := rec["cover_rows_swept"].(float64); swept <= 0 || rec["cover_hit"] != false {
		t.Errorf("record of a cold query has cover_hit = %v, cover_rows_swept = %v", rec["cover_hit"], rec["cover_rows_swept"])
	}
}
