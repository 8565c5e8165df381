package dataset

import (
	"os"
	"path/filepath"
	"testing"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// cachedBuild is the topsquery -cache path: a preset, its snapshot key, and
// CachedBuild in dir.
func cachedBuild(t *testing.T, dir string, opts core.Options) (*core.Index, bool, string) {
	t.Helper()
	cfg := Config{Scale: 0.01, Seed: 7}
	d, err := Load(BeijingSmall, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := SnapshotKey(BeijingSmall, cfg, opts)
	idx, warm, err := CachedBuild(dir, key, d.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx, warm, filepath.Join(dir, key)
}

func TestCachedBuildCachesSnapshots(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Gamma: 0.75, TauMin: 0.3, TauMax: 4.8}

	cold, warm, path := cachedBuild(t, dir, opts)
	if warm {
		t.Fatal("first load reported warm")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold build did not cache a snapshot: %v", err)
	}

	hit, warm, _ := cachedBuild(t, dir, opts)
	if !warm {
		t.Fatal("second load did not hit the snapshot cache")
	}

	// Warm and cold indices must answer identically.
	pref := tops.Binary(0.8)
	a, err := cold.Query(core.QueryOptions{K: 5, Pref: pref})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hit.Query(core.QueryOptions{K: 5, Pref: pref})
	if err != nil {
		t.Fatal(err)
	}
	if a.EstimatedUtility != b.EstimatedUtility || len(a.Sites) != len(b.Sites) {
		t.Fatalf("warm load answers differently: %v vs %v", a, b)
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs between cold and warm index", i)
		}
	}

	// A corrupted cache entry must fall back to a cold rebuild, not fail.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ := cachedBuild(t, dir, opts); warm {
		t.Fatal("corrupted snapshot served as warm load")
	}
}

func TestCachedBuildToleratesUnwritableCache(t *testing.T) {
	// The cache is best-effort: a read-only cache volume must not stop a
	// process that has already built a perfectly good index.
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Getuid() == 0 {
		t.Skip("root ignores directory write bits; cannot simulate a read-only cache")
	}
	idx, warm, _ := cachedBuild(t, dir, core.Options{Gamma: 0.75, TauMin: 0.3, TauMax: 4.8})
	if warm || idx == nil {
		t.Fatalf("unexpected result from cold build on read-only cache: warm=%v idx=%v", warm, idx)
	}
}

func TestCachedBuildKeySeparatesConfigs(t *testing.T) {
	dir := t.TempDir()
	cachedBuild(t, dir, core.Options{Gamma: 0.75, TauMin: 0.3, TauMax: 4.8})
	// A different γ must not collide with the cached entry.
	if _, warm, _ := cachedBuild(t, dir, core.Options{Gamma: 1.0, TauMin: 0.3, TauMax: 4.8}); warm {
		t.Fatal("different build options hit the same cache entry")
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"+SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 cache entries, found %d: %v", len(entries), entries)
	}
}
