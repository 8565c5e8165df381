package main

// Cross-process differential oracle for the router tier: real topsserve
// shard-member children behind a real topsrouter child must answer
// queries bit-identically to a single-engine twin across an update
// stream — including after one shard's primary is SIGKILLed, its tailing
// follower is promoted, and the router is re-pointed at it. This is the
// process-level closure of the in-process differential in
// internal/router.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"netclus"
	"netclus/internal/dataset"
)

const (
	tPreset = "beijing-small"
	tScale  = 0.2
	tSeed   = 7
	tShards = 2
)

func buildBinary(t *testing.T, pkgDir, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkgDir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type child struct {
	cmd  *exec.Cmd
	addr string
	logf *os.File
}

func startChild(t *testing.T, bin string, args ...string) *child {
	t.Helper()
	addr := freePort(t)
	logf, err := os.CreateTemp(t.TempDir(), "child-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, addr: addr, logf: logf}
	t.Cleanup(func() {
		if c.cmd.Process != nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
		if t.Failed() {
			logf.Seek(0, 0)
			out, _ := io.ReadAll(logf)
			t.Logf("child %s log:\n%s", addr, out)
		}
	})
	return c
}

// startMember boots one topsserve shard member of the test topology.
func startMember(t *testing.T, bin string, index int, extra ...string) *child {
	t.Helper()
	return startChild(t, bin, append([]string{
		"-preset", tPreset, "-scale", fmt.Sprint(tScale), "-seed", fmt.Sprint(tSeed),
		"-shards", fmt.Sprint(tShards), "-shard-index", fmt.Sprint(index),
	}, extra...)...)
}

func (c *child) url() string { return "http://" + c.addr }

func (c *child) waitHealthy(t *testing.T, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("child %s never became healthy", c.addr)
}

func (c *child) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
}

func (c *child) statszLSN(t *testing.T) uint64 {
	t.Helper()
	resp, err := http.Get(c.url() + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Engine struct {
			LSN uint64 `json:"lsn"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Engine.LSN
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// update is one scripted /v1/update call also applicable to the twin.
type update struct {
	op    string
	node  int64
	nodes []int64
	id    int64
}

func (u update) wire() string {
	switch u.op {
	case "add_site", "delete_site":
		return fmt.Sprintf(`{"op":%q,"node":%d}`, u.op, u.node)
	case "add_trajectory":
		raw, _ := json.Marshal(u.nodes)
		return fmt.Sprintf(`{"op":"add_trajectory","nodes":%s}`, raw)
	default:
		return fmt.Sprintf(`{"op":"delete_trajectory","id":%d}`, u.id)
	}
}

func (u update) applyTwin(t *testing.T, eng *netclus.Engine) {
	t.Helper()
	var err error
	switch u.op {
	case "add_site":
		err = eng.AddSite(netclus.NodeID(u.node))
	case "delete_site":
		err = eng.DeleteSite(netclus.NodeID(u.node))
	case "add_trajectory":
		nodes := make([]netclus.NodeID, len(u.nodes))
		for i, v := range u.nodes {
			nodes[i] = netclus.NodeID(v)
		}
		tr, terr := netclus.NewTrajectory(eng.Graph(), nodes)
		if terr != nil {
			t.Fatal(terr)
		}
		_, err = eng.AddTrajectory(tr)
	default:
		err = eng.DeleteTrajectory(netclus.TrajectoryID(u.id))
	}
	if err != nil {
		t.Fatalf("twin %s: %v", u.op, err)
	}
}

// script builds a deterministic update sequence valid when applied in
// order from the pristine preset (same shape as the topsserve oracle's).
func script(t *testing.T, inst *netclus.Instance, n int) []update {
	t.Helper()
	isSite := make(map[netclus.NodeID]bool, len(inst.Sites))
	for _, s := range inst.Sites {
		isSite[s] = true
	}
	var free []int64
	for v := 0; v < inst.G.NumNodes() && len(free) < n; v++ {
		if !isSite[netclus.NodeID(v)] {
			free = append(free, int64(v))
		}
	}
	var ups []update
	tr0 := inst.Trajs.Get(0)
	for i := 0; len(ups) < n; i++ {
		switch {
		case i == 3:
			ups = append(ups, update{op: "delete_site", node: int64(inst.Sites[0])})
		case i == 5:
			var nodes []int64
			for _, v := range tr0.Nodes {
				nodes = append(nodes, int64(v))
			}
			ups = append(ups, update{op: "add_trajectory", nodes: nodes})
		case i == 8:
			ups = append(ups, update{op: "delete_trajectory", id: 1})
		default:
			ups = append(ups, update{op: "add_site", node: free[0]})
			free = free[1:]
		}
	}
	return ups
}

// queryBoth asserts the router and the single-engine twin answer a
// query identically, bit for bit.
func queryBoth(t *testing.T, url string, twin *netclus.Engine, k int, tau float64) {
	t.Helper()
	status, raw := post(t, url+"/v1/query", fmt.Sprintf(`{"k":%d,"tau":%g}`, k, tau))
	if status != http.StatusOK {
		t.Fatalf("query k=%d tau=%g: %d %s", k, tau, status, raw)
	}
	var got struct {
		Sites            []int64 `json:"sites"`
		SiteIDs          []int32 `json:"site_ids"`
		EstimatedUtility float64 `json:"estimated_utility"`
		EstimatedCovered int     `json:"estimated_covered"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want, err := twin.Query(context.Background(), netclus.QueryOptions{K: k, Pref: netclus.Binary(tau)})
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedUtility != want.EstimatedUtility || got.EstimatedCovered != want.EstimatedCovered ||
		len(got.Sites) != len(want.Sites) {
		t.Fatalf("k=%d tau=%g: router {u=%v c=%d n=%d} twin {u=%v c=%d n=%d}",
			k, tau, got.EstimatedUtility, got.EstimatedCovered, len(got.Sites),
			want.EstimatedUtility, want.EstimatedCovered, len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i] != int64(want.Sites[i]) || got.SiteIDs[i] != int32(want.SiteIDs[i]) {
			t.Fatalf("k=%d tau=%g site %d: router (%d,%d) twin (%d,%d)",
				k, tau, i, got.Sites[i], got.SiteIDs[i], want.Sites[i], want.SiteIDs[i])
		}
	}
}

func TestRouterCrossProcessOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve/topsrouter processes; skipped under -short")
	}
	serveBin := buildBinary(t, "../topsserve", "topsserve")
	routeBin := buildBinary(t, ".", "topsrouter")

	// The twin: one engine over the same dataset, never interrupted; the
	// members derive their shared ladder from the full site set, as its
	// build does.
	d, err := netclus.LoadDataset(dataset.Preset(tPreset), netclus.DatasetConfig{Scale: tScale, Seed: tSeed})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := netclus.Build(d.Instance, netclus.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := netclus.NewEngine(idx, netclus.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ups := script(t, d.Instance, 14)

	// Shard 0 runs durable (its follower tails the WAL); shard 1 is a
	// plain member.
	walA := filepath.Join(t.TempDir(), "wal-a")
	m0 := startMember(t, serveBin, 0, "-wal-dir", walA, "-fsync", "always")
	m1 := startMember(t, serveBin, 1)
	m0.waitHealthy(t, 5*time.Minute)
	m1.waitHealthy(t, 5*time.Minute)

	// Shard 0's follower: an independent member-mode replica tailing m0.
	f0 := startMember(t, serveBin, 0, "-follow", m0.url(), "-follow-poll", "100ms", "-follow-wait", "2s")
	f0.waitHealthy(t, 5*time.Minute)

	// The router fronts both shards; shard 0 lists its follower as the
	// read-failover target.
	router := startChild(t, routeBin,
		"-shard", m0.url()+","+f0.url(),
		"-shard", m1.url())
	router.waitHealthy(t, time.Minute)

	// Phase 1: updates through the router, mirrored on the twin; answers
	// must stay bit-exact.
	phase1 := ups[:10]
	for i, u := range phase1 {
		status, raw := post(t, router.url()+"/v1/update", u.wire())
		if status != http.StatusOK {
			t.Fatalf("update %d (%s): %d %s", i, u.op, status, raw)
		}
		u.applyTwin(t, twin)
	}
	for _, q := range []struct {
		k   int
		tau float64
	}{{3, 0.8}, {5, 1.6}, {8, 2.8}} {
		queryBoth(t, router.url(), twin, q.k, q.tau)
	}

	// Phase 2: SIGKILL shard 0's primary. The follower must first drain
	// the full stream (its LSN matches the primary's), then reads keep
	// flowing through the router via automatic failover to the follower —
	// the cover endpoint is read-only, so no promotion is needed yet.
	target := m0.statszLSN(t)
	deadline := time.Now().Add(60 * time.Second)
	for f0.statszLSN(t) != target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, shard-0 primary at %d", f0.statszLSN(t), target)
		}
		time.Sleep(100 * time.Millisecond)
	}
	m0.kill(t)
	queryBoth(t, router.url(), twin, 4, 1.1)

	// Phase 3: promote the follower, re-point the router, and keep
	// writing; answers stay bit-exact against the uninterrupted twin.
	status, raw := post(t, f0.url()+"/v1/promote", "")
	if status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, raw)
	}
	status, raw = post(t, router.url()+"/v1/topology", fmt.Sprintf(`{"shard":0,"primary":%q}`, f0.url()))
	if status != http.StatusOK {
		t.Fatalf("re-point: %d %s", status, raw)
	}
	for i, u := range ups[10:] {
		status, raw := post(t, router.url()+"/v1/update", u.wire())
		if status != http.StatusOK {
			t.Fatalf("post-promote update %d (%s): %d %s", i, u.op, status, raw)
		}
		u.applyTwin(t, twin)
	}
	for _, q := range []struct {
		k   int
		tau float64
	}{{3, 0.8}, {6, 2.2}, {9, 3.4}} {
		queryBoth(t, router.url(), twin, q.k, q.tau)
	}

	// The router's own surfaces reflect the drill.
	resp, err := http.Get(router.url() + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Failovers uint64 `json:"failovers"`
		Updates   uint64 `json:"updates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Failovers == 0 {
		t.Fatal("router reported no failovers after shard 0's primary was SIGKILLed")
	}
	if stats.Updates < uint64(len(ups)) {
		t.Fatalf("router counted %d updates, want >= %d", stats.Updates, len(ups))
	}
}
