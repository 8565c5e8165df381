package main

// Exported-checkpoint differentials: a real topsserve child takes
// acknowledged updates and exports a checkpoint, either on its SIGTERM
// drain (-snapshot-on-exit) or over HTTP (POST /v1/checkpoint), and a
// second child booted with -load on that file must answer a fixed query mix
// bit-identically to an in-process twin that applied the same updates. The
// file holds the mutated dataset with the index, so nothing about the
// preset's original state may leak back in.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"netclus"
)

func TestExitCheckpointReloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve processes; skipped under -short")
	}
	bin := buildBinary(t)
	t.Run("single", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "exit.ncck")
		twin, inst := twinEngine(t)
		// Three site adds, a site delete, a site add, a trajectory add.
		ups := script(t, inst, 6)

		a := startChild(t, bin, freePort(t), "-snapshot-on-exit", path)
		a.waitHealthy(t, 5*time.Minute)
		applyBoth(t, a.url(), twin, ups)
		if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := a.cmd.Wait(); err != nil {
			t.Fatalf("drain with -snapshot-on-exit: %v", err)
		}

		b := startChild(t, bin, freePort(t), "-load", path)
		b.waitHealthy(t, 2*time.Minute)
		queryMixBoth(t, b.url(), twin)
	})
}

// TestCheckpointEndpointReloadDifferential: the live export. A child
// mutated by every /v1/update kind streams POST /v1/checkpoint to a file,
// keeps serving, and a second child booted with -load on the file answers
// bit-identically to the twin (and so to the first child).
func TestCheckpointEndpointReloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve processes; skipped under -short")
	}
	bin := buildBinary(t)
	path := filepath.Join(t.TempDir(), "live.ncck")
	twin, inst := twinEngine(t)
	// Site adds, a site delete, a trajectory add and a trajectory delete.
	ups := script(t, inst, 9)

	a := startChild(t, bin, freePort(t))
	a.waitHealthy(t, 5*time.Minute)
	applyBoth(t, a.url(), twin, ups)
	resp, err := http.Post(a.url()+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	b := startChild(t, bin, freePort(t), "-load", path)
	b.waitHealthy(t, 2*time.Minute)
	queryMixBoth(t, a.url(), twin)
	queryMixBoth(t, b.url(), twin)
}

// applyBoth posts each update to the server at url, requiring a 200, and
// applies it to the twin.
func applyBoth(t *testing.T, url string, twin netclus.DurableEngine, ups []update) {
	t.Helper()
	for i, u := range ups {
		resp, err := http.Post(url+"/v1/update", "application/json", strings.NewReader(u.wire()))
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d (%s): status %d", i, u.op, resp.StatusCode)
		}
		u.applyTwin(t, twin)
	}
}

// queryMixBoth runs the fixed query mix through queryBoth.
func queryMixBoth(t *testing.T, url string, twin netclus.DurableEngine) {
	t.Helper()
	for _, q := range []struct {
		k   int
		tau float64
	}{{3, 0.8}, {5, 1.6}, {8, 2.8}, {4, 1.1}} {
		queryBoth(t, url, twin, q.k, q.tau)
	}
}
