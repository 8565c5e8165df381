package main

// Kill-and-recover differential: a real topsserve child is SIGKILLed in the
// middle of an acknowledged update stream and restarted on the same WAL
// directory; the recovered process must serve query results bit-identical
// to an in-process twin that applied exactly the recovered prefix and was
// never interrupted. A follower then tails the recovered primary and must
// converge to the same answers. This is the process-level closure of the
// in-process recovery differentials in internal/engine and internal/shard;
// cmd/topsrouter's oracle does the same for members behind the router.

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
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "topsserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building topsserve: %v\n%s", err, out)
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

func startChild(t *testing.T, bin, addr string, extra ...string) *child {
	t.Helper()
	args := append([]string{
		"-preset", tPreset, "-scale", fmt.Sprint(tScale), "-seed", fmt.Sprint(tSeed),
		"-addr", addr,
	}, extra...)
	logf, err := os.CreateTemp(t.TempDir(), "child-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
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

// update is one scripted /v1/update call that is also applicable to the
// in-process twin.
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

func (u update) applyTwin(t *testing.T, eng netclus.DurableEngine) {
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
		g := eng.Graph()
		tr, terr := netclus.NewTrajectory(g, nodes)
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

// script builds a deterministic update sequence that is valid when applied
// in order from the pristine preset: site adds over never-before-used
// nodes, deletes of distinct original sites, one trajectory add, one
// trajectory delete.
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

// queryBoth asserts that the HTTP server and the in-process twin answer a
// query identically, bit for bit.
func queryBoth(t *testing.T, url string, twin netclus.DurableEngine, k int, tau float64) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"k":%d,"tau":%g}`, k, tau)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query k=%d tau=%g: %d %s", k, tau, resp.StatusCode, raw)
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
		t.Fatalf("k=%d tau=%g: server {u=%v c=%d n=%d} twin {u=%v c=%d n=%d}",
			k, tau, got.EstimatedUtility, got.EstimatedCovered, len(got.Sites),
			want.EstimatedUtility, want.EstimatedCovered, len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i] != int64(want.Sites[i]) || got.SiteIDs[i] != int32(want.SiteIDs[i]) {
			t.Fatalf("k=%d tau=%g site %d: server (%d,%d) twin (%d,%d)",
				k, tau, i, got.Sites[i], got.SiteIDs[i], want.Sites[i], want.SiteIDs[i])
		}
	}
}

func twinEngine(t *testing.T) (netclus.DurableEngine, *netclus.Instance) {
	t.Helper()
	d, err := netclus.LoadDataset(dataset.Preset(tPreset), netclus.DatasetConfig{Scale: tScale, Seed: tSeed})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := netclus.Build(d.Instance, netclus.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netclus.NewEngine(idx, netclus.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, d.Instance
}

func TestKillRecoverDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve processes; skipped under -short")
	}
	bin := buildBinary(t)
	t.Run("single", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		walDir := filepath.Join(t.TempDir(), "wal")

		// The twin also tells us which updates are valid.
		twin, inst := twinEngine(t)
		ups := script(t, inst, 30)

		// Phase 1: boot A, stream updates, SIGKILL mid-stream.
		a := startChild(t, bin, freePort(t),
			"-cache", cacheDir, "-wal-dir", walDir, "-fsync", "always")
		a.waitHealthy(t, 5*time.Minute)
		// The log is not all mutations: a fresh durable primary opens
		// epoch 1 as its first record, so update counts are LSN-baseLSN.
		baseLSN := a.statszLSN(t)
		acked := 0
		killAt := 12
		for i, u := range ups {
			resp, err := http.Post(a.url()+"/v1/update", "application/json", strings.NewReader(u.wire()))
			if err != nil {
				break // killed under us — acceptable only after killAt
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("update %d: status %d", i, resp.StatusCode)
			}
			acked++
			if acked == killAt {
				a.kill(t)
				break
			}
		}
		if acked < killAt {
			t.Fatalf("only %d updates acknowledged before the kill", acked)
		}

		// Phase 2: boot B on the same WAL dir (with periodic
		// checkpoints); it must recover every acknowledged update.
		b := startChild(t, bin, freePort(t),
			"-cache", cacheDir, "-wal-dir", walDir, "-fsync", "always",
			"-checkpoint-every", "200ms")
		b.waitHealthy(t, 2*time.Minute)
		lsn := b.statszLSN(t)
		muts := lsn - baseLSN
		if muts < uint64(acked) {
			t.Fatalf("recovered %d updates (LSN %d) < %d acknowledged (-fsync always lost an ack)", muts, lsn, acked)
		}
		if muts > uint64(len(ups)) {
			t.Fatalf("recovered %d updates > %d sent", muts, len(ups))
		}
		for _, u := range ups[:muts] {
			u.applyTwin(t, twin)
		}
		for _, q := range []struct {
			k   int
			tau float64
		}{{3, 0.8}, {5, 1.6}, {8, 2.8}} {
			queryBoth(t, b.url(), twin, q.k, q.tau)
		}

		// Phase 3: more acknowledged updates, wait for a checkpoint to
		// land, SIGKILL again; C must recover from checkpoint + tail.
		extra := ups[muts:]
		if len(extra) > 5 {
			extra = extra[:5]
		}
		for i, u := range extra {
			resp, err := http.Post(b.url()+"/v1/update", "application/json", strings.NewReader(u.wire()))
			if err != nil {
				t.Fatalf("phase-3 update %d: %v", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("phase-3 update %d: status %d", i, resp.StatusCode)
			}
			u.applyTwin(t, twin)
		}
		lsn2 := b.statszLSN(t)
		ckpt := filepath.Join(walDir, "checkpoint.ncck")
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, err := os.Stat(ckpt); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("periodic checkpoint never appeared")
			}
			time.Sleep(50 * time.Millisecond)
		}
		b.kill(t)

		c := startChild(t, bin, freePort(t),
			"-cache", cacheDir, "-wal-dir", walDir, "-fsync", "always")
		c.waitHealthy(t, 2*time.Minute)
		if got := c.statszLSN(t); got != lsn2 {
			t.Fatalf("checkpoint recovery LSN %d, want %d", got, lsn2)
		}
		for _, q := range []struct {
			k   int
			tau float64
		}{{4, 1.1}, {6, 2.2}} {
			queryBoth(t, c.url(), twin, q.k, q.tau)
		}

		// Phase 4: a follower tails the recovered primary and converges
		// to identical answers; its writes bounce with 403.
		f := startChild(t, bin, freePort(t),
			"-cache", cacheDir, "-follow", c.url(), "-follow-poll", "100ms")
		f.waitHealthy(t, 2*time.Minute)
		deadline = time.Now().Add(60 * time.Second)
		for f.statszLSN(t) != lsn2 {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at LSN %d, primary at %d", f.statszLSN(t), lsn2)
			}
			time.Sleep(100 * time.Millisecond)
		}
		for _, q := range []struct {
			k   int
			tau float64
		}{{4, 1.1}, {6, 2.2}} {
			queryBoth(t, f.url(), twin, q.k, q.tau)
		}
		resp, err := http.Post(f.url()+"/v1/update", "application/json",
			strings.NewReader(`{"op":"add_site","node":2}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("follower accepted a write: %d", resp.StatusCode)
		}
	})
}

// TestFailoverPromoteDifferential is the process-level failover drill: the
// real primary is SIGKILLed, the follower is promoted via POST /v1/promote
// and opens a new epoch, further writes land on it, and its answers stay
// bit-identical to an uninterrupted in-process twin. The restarted old
// primary is fenced the moment it hears the new epoch and cannot accept
// writes that would fork the log.
func TestFailoverPromoteDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve processes; skipped under -short")
	}
	bin := buildBinary(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	walA := filepath.Join(t.TempDir(), "wal-a")
	walF := filepath.Join(t.TempDir(), "wal-f")

	twin, inst := twinEngine(t)
	ups := script(t, inst, 15)

	// Primary A and follower F, both durable; F long-polls A's log.
	a := startChild(t, bin, freePort(t), "-cache", cacheDir, "-wal-dir", walA, "-fsync", "always")
	a.waitHealthy(t, 5*time.Minute)
	baseLSN := a.statszLSN(t) // epoch 1's record
	f := startChild(t, bin, freePort(t),
		"-cache", cacheDir, "-wal-dir", walF, "-fsync", "always",
		"-follow", a.url(), "-follow-poll", "2s", "-follow-wait", "10s")
	f.waitHealthy(t, 2*time.Minute)

	phase1 := ups[:10]
	for i, u := range phase1 {
		resp, err := http.Post(a.url()+"/v1/update", "application/json", strings.NewReader(u.wire()))
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
		u.applyTwin(t, twin)
	}
	target := baseLSN + uint64(len(phase1))
	deadline := time.Now().Add(60 * time.Second)
	for f.statszLSN(t) != target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, primary at %d", f.statszLSN(t), target)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The primary dies hard; the follower takes over.
	a.kill(t)
	resp, err := http.Post(f.url()+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d %s", resp.StatusCode, raw)
	}
	var pr struct {
		OK    bool   `json:"ok"`
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.OK || pr.Role != "primary" || pr.Epoch != 2 {
		t.Fatalf("promote response: %+v", pr)
	}
	// A promoted node is a healthy primary, not a stalled replica.
	hresp, err := http.Get(f.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("promoted /healthz: %d", hresp.StatusCode)
	}

	// Writes now land on the promoted follower; answers stay bit-exact
	// against the uninterrupted twin.
	for i, u := range ups[10:] {
		resp, err := http.Post(f.url()+"/v1/update", "application/json", strings.NewReader(u.wire()))
		if err != nil {
			t.Fatalf("post-promote update %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-promote update %d: status %d", i, resp.StatusCode)
		}
		u.applyTwin(t, twin)
	}
	for _, q := range []struct {
		k   int
		tau float64
	}{{3, 0.8}, {5, 1.6}, {8, 2.8}} {
		queryBoth(t, f.url(), twin, q.k, q.tau)
	}

	// The deposed primary restarts on its old log (still epoch 1) and is
	// fenced as soon as a peer presents epoch 2 on its replication surface:
	// it can serve reads but must reject writes that would fork history.
	a2 := startChild(t, bin, freePort(t), "-cache", cacheDir, "-wal-dir", walA, "-fsync", "always")
	a2.waitHealthy(t, 2*time.Minute)
	fence, err := http.Get(fmt.Sprintf("%s/v1/log?from=1&max=1&peer_epoch=%d", a2.url(), pr.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, fence.Body)
	fence.Body.Close()
	if fence.StatusCode != http.StatusOK {
		t.Fatalf("fencing tail request: %d", fence.StatusCode)
	}
	uresp, err := http.Post(a2.url()+"/v1/update", "application/json",
		strings.NewReader(`{"op":"delete_site","node":`+fmt.Sprint(int64(inst.Sites[1]))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	uraw, _ := io.ReadAll(uresp.Body)
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed primary accepted a write: %d %s", uresp.StatusCode, uraw)
	}
	var env struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(uraw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "fenced" {
		t.Fatalf("deposed primary error code %q, want fenced (%s)", env.Code, uraw)
	}
}
