package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// lateAfter is how far past its due time an open-loop operation may
// complete before it counts as late in client.late_share.
const lateAfter = 250 * time.Millisecond

// The open loops' fixed shape. Rates and feed size do not follow the
// servers' speed, so a faster server does the same work in a run.
const (
	churnRate = 200 // serve_churn arrivals per second
	flipEvery = 10  // every flipEvery-th arrival is a site flip (two updates)
	probeRate = 100 // ingest_stream probe queries per second
	feedRate  = 100 // ingest_stream feed size, in traces per second of -seconds
)

// matchChecks is how many feed traces are re-matched in-process and
// compared with what the server logged.
const matchChecks = 8

// selfCPUMs is this process's own user+system CPU time so far.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return ms(ru.Utime) + ms(ru.Stime)
}

// window is what one measured window produced.
type window struct {
	samples  []sample
	seconds  float64 // the window's length on the clock
	ingest   *ingestResult
	before   []*scrape // per topology process, index-aligned with topo.procs
	after    []*scrape
	clientMs float64 // the generator's own CPU over the window
	steal    float64 // share of the machine's CPU time the hypervisor took away
}

func scrapeAll(client *http.Client, topo *topology) ([]*scrape, error) {
	out := make([]*scrape, len(topo.procs))
	for i, p := range topo.procs {
		s, err := scrapeProc(client, p)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		out[i] = s
	}
	return out, nil
}

// runWorkload runs one pass — untraced or traced — over one workload and
// returns everything it measured.
func runWorkload(ctx context.Context, cfg *config, cs *children, name string, traced bool, prepS float64) (*report, error) {
	routed := false
	switch name {
	case "serve_hot", "serve_churn", "ingest_stream":
	case "router_hot":
		routed = true
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	rep := &report{workload: name, seed: cfg.seed, traced: traced, correct: true}
	rng := rand.New(rand.NewSource(cfg.seed))
	control := &http.Client{Timeout: 30 * time.Second} // health checks, scrapes, log reads
	dur := time.Duration(cfg.seconds) * time.Second
	pass := *cfg
	pass.workDir = filepath.Join(cfg.workDir, fmt.Sprintf("%s-%t", name, traced))

	// The twin and every other input come first, outside set-up time.
	tTwin := time.Now()
	tw, err := buildTwin(&pass)
	if err != nil {
		return nil, err
	}
	flipNode := int64(tw.inst.Sites[rng.Intn(len(tw.inst.Sites))])
	var snapshot bytes.Buffer
	var feed gpsFeed
	if name == "ingest_stream" {
		feed = tw.gpsFeed(cfg.seed, feedRate*cfg.seconds)
	} else if traced {
		feed = tw.gpsFeed(cfg.seed, 4*matchChecks) // the matcher rung needs a few traces
	}
	if traced {
		if _, err := tw.idx.WriteTo(&snapshot); err != nil {
			return nil, fmt.Errorf("snapshotting twin index: %w", err)
		}
	}
	twinS := time.Since(tTwin).Seconds()

	// Set-up: children launched cold until every /healthz answers, then
	// the mix once — which also fills every cover — checked against the
	// twin while no mutation has happened yet on any workload.
	var extra []string
	if name == "ingest_stream" {
		// The one departure from default serving flags. With the default
		// pool (one matcher per core) a topsserve process comes up, at
		// random, either matching ~10 ms/trace or ~20 ms/trace and stays
		// that way (reproducible with ingest.Ingestor.Run alone, so not
		// HTTP, the probe or the GC); a two-valued throughput cannot be
		// held to a bound. One matcher is steady within 5 %.
		extra = []string{"-ingest-workers", "1"}
	}
	tSetup := time.Now()
	topo, err := boot(ctx, &pass, cs, control, routed, extra...)
	if err != nil {
		return nil, err
	}
	conns := []*conn{newConn(), newConn()}
	defer conns[0].close()
	defer conns[1].close()
	front := topo.front.url
	first, err := served(conns[0], front)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w\n%s", err, topo.front.out.String())
	}
	rep.attempted += len(queryMix)
	for q := range first {
		if !tw.want[q].equals(&first[q]) {
			rep.failed++
			rep.problem("warm-up answer to %+v differs from the twin's: got %v %v, want %v %v",
				queryMix[q], first[q].Sites, first[q].EstimatedUtility, tw.want[q].sites, tw.want[q].utility)
		}
	}
	setupS := time.Since(tSetup).Seconds()

	exact := func(q int, r *queryResp) bool { return tw.want[q].equals(r) }
	shape := func(q int, r *queryResp) bool { return tw.shapeOK(queryMix[q], r) }
	offsets := []int{rng.Intn(len(queryMix)), rng.Intn(len(queryMix))}
	warm := newDriver(name, front, exact, nil)
	warm.start = time.Now()
	warm.closedLoop(conns, offsets, cfg.warm)

	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	verify := exact
	if name == "serve_churn" || name == "ingest_stream" {
		verify = shape
	}
	d := newDriver(name, front, verify, spans)
	d.flipNode = flipNode

	var win window
	if win.before, err = scrapeAll(control, topo); err != nil {
		return nil, err
	}
	cpu0 := selfCPUMs()
	ticks0, steal0 := hostTicks()
	d.start = time.Now()
	switch name {
	case "serve_hot":
		win.samples = d.closedLoop(conns, offsets, dur)
		win.seconds = time.Since(d.start).Seconds()
	case "router_hot":
		// One client, not two: a query keeps the router and both members
		// busy at once, so a second client saturates both cores and the
		// window measures the kernel scheduler (run-to-run spread 8-9 %
		// against 3 % with one).
		win.samples = d.closedLoop(conns[:1], offsets, dur)
		win.seconds = time.Since(d.start).Seconds()
	case "serve_churn":
		win.samples = d.openLoop(conns, schedule(rng, churnRate, dur, flipEvery), nil)
		win.seconds = time.Since(d.start).Seconds()
	case "ingest_stream":
		// The probe schedule is longer than any plausible feed time; the
		// probe stops when the last verdict has arrived.
		sched := schedule(rng, probeRate, 8*dur, 0)
		var stop atomic.Bool
		probed := make(chan []sample, 1)
		go func() { probed <- d.openLoop(conns[1:], sched, &stop) }()
		res := d.ingest(conns[0], feed.ndjson)
		stop.Store(true)
		win.samples = <-probed
		if res.err != nil {
			return nil, fmt.Errorf("ingest stream: %w\n%s", res.err, topo.front.out.String())
		}
		win.ingest = &res
		win.seconds = (res.lastVerdict - res.firstByte).Seconds()
	}
	win.clientMs = selfCPUMs() - cpu0
	if ticks1, steal1 := hostTicks(); ticks1 > ticks0 {
		win.steal = (steal1 - steal0) / (ticks1 - ticks0)
	}
	if win.after, err = scrapeAll(control, topo); err != nil {
		return nil, err
	}

	rep.add("setup_s", setupS, "s", "children launched cold -> all healthy -> mix answered once")
	measure(rep, cfg, topo, &win)
	rep.add("client.prep_s", prepS+twinS, "s", fmt.Sprintf("go build %.2f + twin and inputs %.2f; not part of setup_s", prepS, twinS))

	// After the window: bring the twin to the state the servers should be
	// in and compare the whole mix again.
	switch name {
	case "serve_churn":
		acked := 0
		for _, s := range win.samples {
			if s.kind == opUpdate && s.ok {
				acked++
			}
		}
		if err := tw.replayFlips(flipNode, acked/2); err != nil {
			return nil, err
		}
		if err := compareWithTwin(rep, tw, conns[0], front, "after the window"); err != nil {
			return nil, err
		}
		if !traced {
			if err := durabilityDrill(ctx, rep, cs, control, topo, tw, conns[0], d.lastLSN.Load()); err != nil {
				return nil, err
			}
		}
	case "ingest_stream":
		logged, err := tw.replayLog(control, front)
		if err != nil {
			return nil, fmt.Errorf("replaying the server's log into the twin: %w", err)
		}
		if err := compareWithTwin(rep, tw, conns[0], front, "after the feed"); err != nil {
			return nil, err
		}
		if win.ingest.rejected == 0 {
			bad := tw.checkMatches(feed, logged, matchChecks)
			rep.attempted += matchChecks
			rep.failed += bad
			if bad > 0 {
				rep.problem("%d of the first %d traces were logged with a different path than the in-process matcher finds", bad, matchChecks)
			}
		}
	}
	cs.killAll()

	// Quality of what the servers answer now, which the checks above proved
	// equal to the twin's: the window's answers where the index is static,
	// the post-window mix on the index the window's mutations left behind.
	ratio, err := tw.utilityRatio()
	if err != nil {
		return nil, err
	}
	rep.add("utility_ratio", ratio, "ratio", "exact utility of the served answers / exact utility of IncGreedy on the instance as served, mean over the mix")

	if traced {
		lad, err := runLadder(&pass, snapshot.Bytes(), feed, flipNode)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		measureLadder(rep, lad, tw, float64(snapshot.Len())/(1<<20))
		lad.spans(spans)
		path := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
		if err := spans.flush(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.add("client.spans", float64(len(spans.spans)), "count", "written to "+path)
	}
	return rep, nil
}

// compareWithTwin asks the servers for the whole mix and counts answers
// that differ from the twin's as failed operations.
func compareWithTwin(rep *report, tw *twin, c *conn, url, when string) error {
	bad, err := tw.mismatches(c, url)
	if err != nil {
		return fmt.Errorf("comparing with the twin %s: %w", when, err)
	}
	rep.attempted += len(queryMix)
	rep.failed += bad
	if bad > 0 {
		rep.problem("%d of %d answers differ from the twin's %s", bad, len(queryMix), when)
	}
	return nil
}

// durabilityDrill SIGKILLs the WAL-owning process, restarts it on the same
// log directory, and checks that no acknowledged write was lost: the head
// LSN is at least the last one the client saw acked, and every answer
// equals the twin's.
func durabilityDrill(ctx context.Context, rep *report, cs *children, control *http.Client, topo *topology, tw *twin, c *conn, lastAcked uint64) error {
	old := topo.primary
	t0 := time.Now()
	cs.kill(old)
	c.close() // its socket died with the server
	reborn := &proc{name: old.name, bin: old.bin, args: old.args, env: old.env, url: old.url}
	if err := cs.start(reborn); err != nil {
		return err
	}
	if err := waitHealthy(ctx, control, reborn); err != nil {
		return fmt.Errorf("restart on the same WAL: %w", err)
	}
	rep.add("recovery_s", time.Since(t0).Seconds(), "s", "SIGKILL -> restart on the same -wal-dir -> /healthz 200")
	for i, p := range topo.procs {
		if p == old {
			topo.procs[i] = reborn
		}
	}
	topo.primary, topo.front = reborn, reborn
	s, err := scrapeProc(control, reborn)
	if err != nil {
		return err
	}
	if s.stats.Engine.LSN < lastAcked {
		rep.problem("acknowledged write lost: recovered to LSN %d, the client saw LSN %d acked", s.stats.Engine.LSN, lastAcked)
	}
	return compareWithTwin(rep, tw, c, reborn.url, "after kill and recovery")
}
