package main

// Exit-checkpoint differential: a real topsserve child booted with
// -snapshot-on-exit takes acknowledged updates, drains on SIGTERM, and a
// second child booted with -load on the file it wrote must answer a fixed
// query mix bit-identically to an in-process twin that applied the same
// updates — for the single-index and the sharded topology. The file holds
// the mutated dataset with the index, so nothing about the preset's
// original state may leak back in.

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestExitCheckpointReloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real topsserve processes; skipped under -short")
	}
	bin := buildBinary(t)
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"single", 1},
		{"sharded", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "exit.ncck")
			shardArgs := []string{"-shards", fmt.Sprint(tc.shards)}
			twin, inst := twinEngine(t, tc.shards)
			// Three site adds, a site delete, a site add, a trajectory add.
			ups := script(t, inst, 6)

			a := startChild(t, bin, freePort(t), append(shardArgs, "-snapshot-on-exit", path)...)
			a.waitHealthy(t, 5*time.Minute)
			for i, u := range ups {
				resp, err := http.Post(a.url()+"/v1/update", "application/json", strings.NewReader(u.wire()))
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
			if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if err := a.cmd.Wait(); err != nil {
				t.Fatalf("drain with -snapshot-on-exit: %v", err)
			}

			b := startChild(t, bin, freePort(t), append(shardArgs, "-load", path)...)
			b.waitHealthy(t, 2*time.Minute)
			for _, q := range []struct {
				k   int
				tau float64
			}{{3, 0.8}, {5, 1.6}, {8, 2.8}, {4, 1.1}} {
				queryBoth(t, b.url(), twin, q.k, q.tau)
			}
		})
	}
}
