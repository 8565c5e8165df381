package dataset

import (
	"fmt"
	"os"
	"path/filepath"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// Snapshot caching. Dataset presets are synthesized deterministically from
// (name, scale, seed), so the NETCLUS index over a preset is a pure function
// of the preset config and the build options — exactly the situation where
// a disk cache of binary snapshots turns every process start after the
// first into a warm start. The snapshot's dataset fingerprint protects the
// cache: a stale or foreign file fails verification and is silently rebuilt.

// SnapshotExt is the file extension of cached index snapshots.
const SnapshotExt = ".ncss"

// SnapshotKey names the cache file for one (preset, config, build options)
// combination. Every parameter that changes the built index MUST appear
// here: the load-time fingerprint only covers the dataset (graph, sites,
// trajectories), so for build options this key is the sole guard — a new
// build-affecting option added to core.Options without extending this key
// would silently share cache entries across configs.
func SnapshotKey(name Preset, cfg Config, opts core.Options) string {
	// Options.Workers is deliberately absent: worker count never changes
	// the built index, so all worker settings share one cache entry.
	tau := fmt.Sprintf("t%g-%g", opts.TauMin, opts.TauMax)
	if opts.TauMin <= 0 || opts.TauMax <= 0 {
		// A zero bound is derived at build time, by a rule the key must name.
		tau += "-" + core.TauRangeRule
	}
	return fmt.Sprintf("%s-s%g-seed%d-g%g-%s-fm%v-f%d-fs%d%s",
		name, cfg.Scale, cfg.Seed, opts.Gamma, tau,
		opts.GDSP.UseFM, opts.GDSP.F, opts.GDSP.Seed, SnapshotExt)
}

// LoadOrBuild is the single load-or-build-and-save primitive behind every
// snapshot cache (CachedBuild, the bench harness's -save/-load flags).
// With read set it first tries the snapshot at path — a missing, corrupt,
// stale, or mismatched file simply falls through to a fresh build. With
// write set the built index is snapshotted back (atomic rename, so
// concurrent processes at worst rebuild redundantly, never read torn
// files). The boolean reports a warm load. On a snapshot-write failure the
// freshly built index is returned TOGETHER WITH the error: callers choose
// whether an unwritable cache is fatal (explicit -save) or not (implicit
// caching).
func LoadOrBuild(path string, inst *tops.Instance, opts core.Options, read, write bool) (*core.Index, bool, error) {
	if read {
		if idx, err := core.ReadIndexFile(path, inst); err == nil {
			return idx, true, nil
		}
	}
	idx, err := core.Build(inst, opts)
	if err != nil {
		return nil, false, err
	}
	if write {
		if err := idx.WriteSnapshotFile(path); err != nil {
			return idx, false, fmt.Errorf("dataset: caching snapshot: %w", err)
		}
	}
	return idx, false, nil
}

// CachedBuild returns the index for inst, serving it from dir's snapshot
// cache when possible and writing the entry back after cold builds. The
// cache is best-effort both ways: a read-only or full volume must not stop
// a process that already holds a perfectly good index, it just stays cold
// next time.
func CachedBuild(dir, key string, inst *tops.Instance, opts core.Options) (*core.Index, bool, error) {
	idx, warm, err := LoadOrBuild(filepath.Join(dir, key), inst, opts, true, true)
	if idx != nil {
		if err != nil {
			// Advisory cache: the build succeeded, so the write error must
			// not fail the caller — but stay diagnosable, or an unwritable
			// cache directory silently costs a full cold build on every start.
			fmt.Fprintf(os.Stderr, "dataset: snapshot cache disabled this run: %v\n", err)
		}
		return idx, warm, nil
	}
	return nil, false, err
}
