package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
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
		{"-load", []string{"-load", "state.ncck"}, ""},
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
		// One process serves one index: more shards means members behind
		// topsrouter, whatever the starting state.
		{"-shards N", []string{"-shards", "2"}, "behind topsrouter"},
		{"-load, sharded", []string{"-load", "state.ncck", "-shards", "2"}, "behind topsrouter"},
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
		c, err := parse(append([]string{"-preset", tPreset, "-cache", "c"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(c.cachePath(inst))
	}
	member := []string{"-shards", "2", "-shard-index", "1"}
	base, baseMember := key(inst), key(inst, member...)
	// The single engine's key names the τ-range rule, so an entry written
	// before the rule capped τmax (key "…-1xhash.ncck", a longer ladder)
	// misses instead of loading beside freshly built members.
	if want := fmt.Sprintf("%s-%016x-1xhash-taucap20.ncck", tPreset, netclus.IndexFingerprint(inst)); base != want {
		t.Errorf("single-engine key %s, want %s", base, want)
	}
	if want := fmt.Sprintf("%s-%016x-2xhash-member1-taucap20.ncck", tPreset, netclus.IndexFingerprint(inst)); baseMember != want {
		t.Errorf("member key %s, want %s", baseMember, want)
	}
	for name, same := range map[string][2]string{
		"listen address": {key(inst, "-addr", ":9999"), key(inst, append(member, "-addr", ":9999")...)},
		"log directory":  {key(inst, "-wal-dir", "w"), key(inst, append(member, "-wal-dir", "w")...)},
		"follower":       {key(inst, "-follow", "http://primary:8080"), key(inst, append(member, "-follow", "http://primary:8080")...)},
	} {
		if same[0] != base || same[1] != baseMember {
			t.Errorf("%s changes a key: %s vs %s, %s vs %s", name, same[0], base, same[1], baseMember)
		}
	}
	seen := map[string]string{base: "base"}
	for name, k := range map[string]string{
		"member 1":          baseMember,
		"dataset":           key(other),
		"member 1, dataset": key(other, member...),
		"member 0":          key(inst, "-shards", "2", "-shard-index", "0"),
		"3 members":         key(inst, "-shards", "3", "-shard-index", "1"),
	} {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares the key %s with %s", name, k, prev)
		}
		seen[k] = name
	}
}

// TestCacheMissesOtherTopology boots in process: a cached cold build is
// reused by the same topology, and a different role, member or shard count
// misses and builds its own instead of loading the wrong one.
func TestCacheMissesOtherTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-builds four indexes; skipped under -short")
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
		{nil, "", "single index"},
		{nil, fromCache, "single index"},
		{[]string{"-shards", "2", "-shard-index", "1"}, "", "shard member 1"},
		{[]string{"-shards", "2", "-shard-index", "1"}, fromCache, "shard member 1"},
		{[]string{"-shards", "3", "-shard-index", "1"}, "", "shard member 1"},
		{[]string{"-shards", "3", "-shard-index", "1"}, fromCache, "shard member 1"},
	} {
		b := boots(step.args...)
		if b.from != step.from || topology(b.eng) != step.topology {
			t.Fatalf("boot %v: started from %q as %s, want %q as %s", step.args, b.from, topology(b.eng), step.from, step.topology)
		}
		// A member from the cache still reports the build-time site order,
		// as a cold-built one does, so the router's dense ids do not change.
		if m, ok := b.eng.(*netclus.ShardMember); ok {
			if meta, _ := m.Meta(context.Background()); len(meta.InitialSites) == 0 {
				t.Fatalf("boot %v: member lost its initial site order", step.args)
			}
		}
	}
}
