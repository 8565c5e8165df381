package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/obs"
	"netclus/internal/tops"
)

// querySpec is one entry of the fixed query mix.
type querySpec struct {
	K    int     `json:"k"`
	Tau  float64 `json:"tau"`
	Pref string  `json:"pref"`
}

// queryMix is the mix every workload and every ladder rung issues, cycled
// round-robin: k=5 binary ψ across four coverage radii (four ladder
// instances, so four cover-cache entries), one larger k, one non-binary ψ.
// No fm query: the router rejects it, and both tiers must answer the mix.
var queryMix = []querySpec{
	{5, 0.4, "binary"}, {5, 0.8, "binary"}, {5, 1.6, "binary"}, {5, 2.4, "binary"},
	{10, 0.8, "binary"}, {5, 0.8, "linear"},
}

func (q querySpec) body() []byte {
	b, _ := json.Marshal(q) // a struct of numbers and a string cannot fail
	return b
}

func (q querySpec) preference() tops.Preference {
	if q.Pref == "linear" {
		return tops.Linear(q.Tau)
	}
	return tops.Binary(q.Tau)
}

func (q querySpec) options() core.QueryOptions {
	return core.QueryOptions{K: q.K, Pref: q.preference()}
}

// queryResp is the part of a /v1/query answer the client reads.
type queryResp struct {
	Sites            []int64 `json:"sites"`
	EstimatedUtility float64 `json:"estimated_utility"`
	ElapsedMs        float64 `json:"elapsed_ms"`
}

// conn is one client connection: a transport capped at a single TCP
// connection, so "two clients" means exactly two sockets.
type conn struct{ client *http.Client }

func newConn() *conn {
	return &conn{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one JSON request and returns the status and whole body.
// traceID, when set, travels in the servers' trace header.
func (c *conn) post(url string, body []byte, traceID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
)

// sample is one client-observed operation. Times are offsets from the
// window start; due is when the operation was scheduled (closed loops:
// when the client became free), so done-due charges queueing to it.
type sample struct {
	kind            opKind
	query           int
	due, sent, done time.Duration
	ok              bool
	traced          bool
	elapsedMs       float64 // the server's own elapsed_ms (queries)
}

func (s sample) latencyMs() float64 { return float64(s.done-s.due) / 1e6 }
func (s sample) rttMs() float64     { return float64(s.done-s.sent) / 1e6 }

// driver issues operations against one front-door URL and checks them.
type driver struct {
	workload string
	url      string
	bodies   [][]byte
	// verify judges a 200 answer to mix entry q: bit-equality with the
	// twin where the index is static, shape where it is being mutated.
	verify func(q int, r *queryResp) bool
	start  time.Time
	spans  *spanLog // nil on the untraced pass

	flipNode int64
	flipMu   sync.Mutex    // one flip at a time: a second delete would 409
	lastLSN  atomic.Uint64 // highest LSN any update ack carried
}

func newDriver(workload, url string, verify func(int, *queryResp) bool, spans *spanLog) *driver {
	d := &driver{workload: workload, url: url, verify: verify, spans: spans}
	for _, q := range queryMix {
		d.bodies = append(d.bodies, q.body())
	}
	return d
}

// traceID names operation seq of worker w, or returns "" for one that goes
// untraced. The traced pass traces half of the operations, so traced and
// untraced latencies come from the same window and their difference is the
// tracing overhead. Which half follows the Thue-Morse sequence (parity of
// seq's set bits): balanced, and aperiodic, so it cannot line up with the
// six-entry mix the way plain alternation would.
func (d *driver) traceID(w, seq int) string {
	if d.spans == nil || bits.OnesCount(uint(seq))%2 != 0 {
		return ""
	}
	return fmt.Sprintf("%s-c%d-%d", d.workload, w, seq)
}

func (d *driver) query(c *conn, id string, q int, due time.Time) sample {
	sent := time.Now()
	status, raw, err := c.post(d.url+"/v1/query", d.bodies[q], id)
	done := time.Now()
	s := sample{kind: opQuery, query: q, due: due.Sub(d.start), sent: sent.Sub(d.start), done: done.Sub(d.start), traced: id != ""}
	if err == nil && status == http.StatusOK {
		var r queryResp
		if json.Unmarshal(raw, &r) == nil && d.verify(q, &r) {
			s.ok, s.elapsedMs = true, r.ElapsedMs
		}
	}
	if id != "" {
		d.spans.request(id, d.workload, "query", s)
	}
	return s
}

func (d *driver) update(c *conn, id, op string, due time.Time) sample {
	body := fmt.Appendf(nil, `{"op":%q,"node":%d}`, op, d.flipNode)
	sent := time.Now()
	status, raw, err := c.post(d.url+"/v1/update", body, id)
	done := time.Now()
	s := sample{kind: opUpdate, due: due.Sub(d.start), sent: sent.Sub(d.start), done: done.Sub(d.start), traced: id != ""}
	if err == nil && status == http.StatusOK {
		var r struct {
			OK  bool   `json:"ok"`
			LSN uint64 `json:"lsn"`
		}
		if json.Unmarshal(raw, &r) == nil && r.OK && r.LSN > 0 {
			s.ok = true
			for {
				cur := d.lastLSN.Load()
				if r.LSN <= cur || d.lastLSN.CompareAndSwap(cur, r.LSN) {
					break
				}
			}
		}
	}
	if id != "" {
		d.spans.request(id, d.workload, "update", s)
	}
	return s
}

// flip removes and re-adds the seeded site: two updates, each timed on its
// own. The delete is due when the flip was; the add is due the moment the
// delete is acknowledged.
func (d *driver) flip(c *conn, w, seq int, due time.Time) []sample {
	d.flipMu.Lock()
	defer d.flipMu.Unlock()
	del := d.update(c, d.traceID(w, seq), "delete_site", due)
	add := d.update(c, d.traceID(w, seq+1), "add_site", time.Now())
	return []sample{del, add}
}

// closedLoop runs one client per connection for dur: each sends its next
// query only after the previous answer, starting at its own offset into
// the mix.
func (d *driver) closedLoop(conns []*conn, offsets []int, dur time.Duration) []sample {
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; time.Since(d.start) < dur; seq++ {
				per[w] = append(per[w], d.query(c, d.traceID(w, seq), (offsets[w]+seq)%len(queryMix), time.Now()))
			}
		}()
	}
	wg.Wait()
	return flatten(per)
}

// arrival is one entry of an open-loop schedule.
type arrival struct {
	due   time.Duration
	kind  opKind
	query int
}

// schedule lays out rate arrivals per second over dur. Each arrival sits
// at a seeded uniform offset inside its own 1/rate cell, which keeps the
// rate exact while breaking lock-step with the servers' timers. Every
// updateEvery-th arrival (0 = never) is a site flip; the rest cycle the mix.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, updateEvery int) []arrival {
	n := int(math.Round(rate * dur.Seconds()))
	gap := float64(dur) / float64(n)
	sched := make([]arrival, n)
	q := rng.Intn(len(queryMix))
	for i := range sched {
		sched[i].due = time.Duration((float64(i) + rng.Float64()) * gap)
		if updateEvery > 0 && i%updateEvery == updateEvery-1 {
			sched[i].kind = opUpdate
			continue
		}
		sched[i].query = q % len(queryMix)
		q++
	}
	return sched
}

// openLoop plays sched over the connections: whichever connection is free
// takes the next arrival and waits for its due time; if none is free the
// arrival waits, and that wait is part of its latency because latency
// runs from due. stop, when set, ends the schedule early.
func (d *driver) openLoop(conns []*conn, sched []arrival, stop *atomic.Bool) []sample {
	per := make([][]sample, len(conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) || (stop != nil && stop.Load()) {
					return
				}
				a := sched[i]
				due := d.start.Add(a.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				// 2*i keeps sequence numbers unique when a flip uses two.
				if a.kind == opUpdate {
					per[w] = append(per[w], d.flip(c, w, 2*i, due)...)
				} else {
					per[w] = append(per[w], d.query(c, d.traceID(w, 2*i), a.query, due))
				}
			}
		}()
	}
	wg.Wait()
	return flatten(per)
}

func flatten(per [][]sample) []sample {
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// ingestResult is what the streaming connection observed.
type ingestResult struct {
	firstByte, lastVerdict time.Duration // offsets from the window start
	matched, rejected      int
	err                    error
}

// firstRead stamps the moment the transport first pulls from the feed —
// the first byte leaving for the server — and hides the feed's length so
// the body goes out chunked, as a live stream would.
type firstRead struct {
	r    io.Reader
	once sync.Once
	at   time.Time
}

func (f *firstRead) Read(p []byte) (int, error) {
	f.once.Do(func() { f.at = time.Now() })
	return f.r.Read(p)
}

// ingest streams feed (NDJSON, one trace per line) as one /v1/ingest body
// and reads verdicts until the server ends the response.
func (d *driver) ingest(c *conn, feed []byte) ingestResult {
	var res ingestResult
	body := &firstRead{r: bytes.NewReader(feed)}
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/ingest", body)
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		res.err = fmt.Errorf("/v1/ingest answered %d: %s", resp.StatusCode, raw)
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	wantLine := 1
	for sc.Scan() {
		var v struct {
			Line         int    `json:"line"`
			TrajectoryID *int32 `json:"trajectory_id"`
			Code         string `json:"code"`
		}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil || v.Line != wantLine {
			res.err = fmt.Errorf("verdict %d malformed or out of order: %q", wantLine, sc.Text())
			return res
		}
		wantLine++
		if v.TrajectoryID != nil && v.Code == "" {
			res.matched++
		} else {
			res.rejected++
		}
		res.lastVerdict = time.Since(d.start)
	}
	res.err = sc.Err()
	res.firstByte = body.at.Sub(d.start)
	return res
}
