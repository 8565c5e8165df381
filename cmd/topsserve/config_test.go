package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netclus"
	"netclus/internal/dataset"
)

// parse runs args through the real flag set and validate.
func parse(args ...string) (*config, error) {
	c := &config{}
	fs := c.flags(flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, c.validate()
}

// TestValidateModes pins config.validate: one accepted row per serving
// mode and per starting state, one rejected row per combination that still
// conflicts.
func TestValidateModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		err  string // substring of the expected error; "" means accepted
	}{
		{"primary", nil, ""},
		{"primary + WAL", []string{"-wal-dir", "w", "-fsync", "always", "-checkpoint-every", "1m", "-quorum", "1"}, ""},
		{"follower", []string{"-follow", "http://primary:8080", "-wal-dir", "w"}, ""},
		{"member", []string{"-shards", "3", "-shard-index", "2", "-wal-dir", "w"}, ""},
		{"member-follower", []string{"-shards", "3", "-shard-index", "0", "-follow", "http://primary:8080"}, ""},
		{"-shards N", []string{"-shards", "2", "-partitioner", "grid"}, ""},
		{"-load", []string{"-load", "state.ncck"}, ""},
		{"-load, sharded", []string{"-load", "state.ncck", "-shards", "2"}, ""},
		{"-load, member", []string{"-load", "state.ncck", "-shards", "2", "-shard-index", "1"}, ""},
		{"-cache", []string{"-cache", "c", "-wal-dir", "w"}, ""},
		{"-cache, member", []string{"-cache", "c", "-shards", "4", "-shard-index", "3"}, ""},

		{"-load with -wal-dir", []string{"-load", "state.ncck", "-wal-dir", "w"}, "-load is a starting state"},
		{"-load with -follow", []string{"-load", "state.ncck", "-follow", "http://primary:8080"}, "-load is a starting state"},
		{"-load with -cache", []string{"-load", "state.ncck", "-cache", "c"}, "-load is a starting state"},
		{"-checkpoint-every without -wal-dir", []string{"-checkpoint-every", "1m"}, "-checkpoint-every needs -wal-dir"},
		{"-quorum without -wal-dir", []string{"-quorum", "1"}, "-quorum needs -wal-dir"},
		{"-shard-index past -shards", []string{"-shards", "2", "-shard-index", "2"}, "-shard-index 2 outside [0, 2)"},
		{"-shard-index with no shards", []string{"-shards", "0", "-shard-index", "0"}, "-shard-index 0 outside [0, 0)"},
		{"bad -shards", []string{"-shards", "0"}, "positive shard count"},
		{"bad -fsync", []string{"-fsync", "sometimes"}, "unknown fsync policy"},
		{"bad -log-level", []string{"-log-level", "bogus"}, "unknown log level"},
		{"bad -log-format", []string{"-log-format", "xml"}, "unknown log format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(tc.args...)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.err != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.err)
			case tc.err != "" && !strings.Contains(err.Error(), tc.err):
				t.Fatalf("error %q does not contain %q", err, tc.err)
			}
		})
	}
}

// TestCacheKeyCoversColdBuildInputs: a -cache entry is keyed by everything
// a cold build depends on, and by nothing else.
func TestCacheKeyCoversColdBuildInputs(t *testing.T) {
	load := func(seed int64) *netclus.Instance {
		d, err := netclus.LoadDataset(dataset.Preset(tPreset), netclus.DatasetConfig{Scale: tScale, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return d.Instance
	}
	inst, other := load(tSeed), load(tSeed+1)
	key := func(inst *netclus.Instance, args ...string) string {
		c, err := parse(append([]string{"-cache", "c", "-shards", "2"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(c.cachePath(inst))
	}
	base := key(inst)
	for name, same := range map[string]string{
		"listen address": key(inst, "-addr", ":9999"),
		"log directory":  key(inst, "-wal-dir", "w"),
		"follower":       key(inst, "-follow", "http://primary:8080"),
	} {
		if same != base {
			t.Errorf("%s changes the key: %s vs %s", name, same, base)
		}
	}
	seen := map[string]string{base: "base"}
	for name, k := range map[string]string{
		"dataset":     key(other),
		"partitioner": key(inst, "-partitioner", "grid"),
		"member 0":    key(inst, "-shard-index", "0"),
		"member 1":    key(inst, "-shard-index", "1"),
		"3 members":   key(inst, "-shards", "3", "-shard-index", "1"),
	} {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares the key %s with %s", name, k, prev)
		}
		seen[k] = name
	}
}

// TestCacheMissesOtherTopology boots in process: a cached cold build is
// reused by the same topology, and a different shard count or partitioner
// misses and builds its own instead of loading the wrong one.
func TestCacheMissesOtherTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-builds four indexes; skipped under -short")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("-shards 2 is capped to one shard on a single core")
	}
	dir := t.TempDir()
	boots := func(args ...string) *booted {
		t.Helper()
		c, err := parse(append([]string{"-preset", tPreset, "-scale", fmt.Sprint(tScale), "-seed", fmt.Sprint(tSeed), "-cache", dir}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := boot(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, step := range []struct {
		args     []string
		from     string
		topology string
	}{
		{[]string{"-shards", "2"}, "", "2 shards"},
		{[]string{"-shards", "2"}, fromCache, "2 shards"},
		{[]string{"-shards", "2", "-partitioner", "grid"}, "", "2 shards"},
		{nil, "", "single index"},
		{nil, fromCache, "single index"},
		{[]string{"-shards", "2", "-shard-index", "1"}, "", "shard member 1"},
		{[]string{"-shards", "2", "-shard-index", "1"}, fromCache, "shard member 1"},
	} {
		b := boots(step.args...)
		if b.from != step.from || topology(b.eng) != step.topology {
			t.Fatalf("boot %v: started from %q as %s, want %q as %s", step.args, b.from, topology(b.eng), step.from, step.topology)
		}
		// A member from the cache still reports the build-time site order,
		// as a cold-built one does, so the router's dense ids do not change.
		if m, ok := b.eng.(*netclus.ShardMember); ok && len(m.Meta().InitialSites) == 0 {
			t.Fatalf("boot %v: member lost its initial site order", step.args)
		}
	}
}
