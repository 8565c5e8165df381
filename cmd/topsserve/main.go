// Command topsserve serves TOPS queries over HTTP: it materializes a
// dataset preset, warm-starts the NETCLUS index from a snapshot or
// checkpoint when one is available, wraps it in the concurrent engine
// (single-index or sharded), and exposes the internal/server JSON API with
// per-request deadlines and graceful drain.
//
// Durability (-wal-dir): every acknowledged /v1/update is appended to a
// write-ahead log before the response leaves; -fsync picks the durability
// window (always / interval / none) and -checkpoint-every writes periodic
// recovery checkpoints that also advance log compaction. A killed server
// restarted with the same -wal-dir recovers to exactly the acknowledged
// state: checkpoint + log-tail replay.
//
// Replication (-follow): a read-replica tails the primary's /v1/log —
// long-polling by default (-follow-wait), falling back to -follow-poll —
// applies records through the recovery replay path, rejects writes with
// 403, and reports its lag in /healthz and /statsz. With -wal-dir it also
// persists the stream locally (and can itself be tailed). POST /v1/promote
// turns a replica into the primary: tailing stops, the local tail replays,
// and a new epoch (fencing token) opens so the deposed primary's writes
// are rejected with 409 fenced. With -quorum N a primary only acknowledges
// an update once N followers have durably persisted it (semi-synchronous
// replication); GET /v1/replication reports the whole topology. See API.md
// for the complete HTTP surface.
//
// Usage:
//
//	topsserve -preset beijing -scale 0.02 -cache .ncache
//	topsserve -preset beijing -scale 0.02 -wal-dir ./wal -fsync always
//	topsserve -preset beijing -scale 0.02 -wal-dir ./wal -checkpoint-every 5m
//	topsserve -preset beijing -scale 0.02 -shards 4 -wal-dir ./wal
//	topsserve -preset beijing -scale 0.02 -follow http://primary:8080 -addr :8081
//	topsserve -preset beijing -scale 0.02 -wal-dir ./wal -quorum 1
//
// Query it:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/query -d '{"k":5,"tau":0.8}'
//	curl -s -X POST localhost:8080/v1/update -d '{"op":"delete_site","node":17}'
//	curl -s -X POST localhost:8080/v1/snapshot -o index.ncss
//	curl -s -X POST localhost:8080/v1/checkpoint -o backup.ncck
//	curl -s 'localhost:8080/v1/log?from=1' -o records.bin
//	curl -s localhost:8080/statsz
//
// SIGTERM/SIGINT starts a graceful drain: /healthz flips to 503 so load
// balancers stop routing here, in-flight requests finish (bounded by
// -drain-timeout), and optional -snapshot-on-exit / final checkpoints are
// written before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"netclus"
	"netclus/internal/dataset"
	"netclus/internal/wal"
)

// checkpointName is the recovery bundle inside -wal-dir.
const checkpointName = "checkpoint.ncck"

// fileExists reports whether path exists (used only to decide whether a
// failed warm load deserves a diagnostic).
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// shardedCacheDir derives the snapshot-cache location for a sharded build:
// sharded manifests live next to the single-index cache entries, keyed by
// everything that changes the partition.
func shardedCacheDir(cacheDir, preset string, scale float64, seed int64, shards int, partitioner string) string {
	return filepath.Join(cacheDir, fmt.Sprintf("sharded-%s-s%g-seed%d-%dx-%s", preset, scale, seed, shards, partitioner))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// config carries the parsed flags the boot paths share.
type config struct {
	addr         string
	preset       string
	scale        float64
	seed         int64
	loadPath     string
	cacheDir     string
	workers      int
	timeout      time.Duration
	drainTimeout time.Duration
	exitSnapshot string
	shards       int
	partitioner  string
	shardIndex   int

	walDir          string
	fsync           netclus.SyncPolicy
	fsyncInterval   time.Duration
	checkpointEvery time.Duration
	follow          string
	followPoll      time.Duration
	followWait      time.Duration
	quorum          int
	quorumTimeout   time.Duration
	pprofAddr       string
	logLevel        string
	logFormat       string
	slowQuery       time.Duration

	ingestWorkers    int
	ingestBatch      int
	ingestRadius     float64
	ingestSigma      float64
	ingestBeta       float64
	ingestMaxCand    int
	ingestMinSpacing float64
	ingestOriginLat  float64
	ingestOriginLon  float64
}

func (c *config) walOptions() netclus.WALOptions {
	return netclus.WALOptions{Policy: c.fsync, Interval: c.fsyncInterval}
}

// ingestOptions lowers the -ingest-* flags; nil disables POST /v1/ingest.
func (c *config) ingestOptions() *netclus.IngestOptions {
	if c.ingestWorkers < 0 {
		return nil
	}
	return &netclus.IngestOptions{
		Workers:  c.ingestWorkers,
		MaxBatch: c.ingestBatch,
		Match: netclus.MatchConfig{
			CandidateRadiusKm: c.ingestRadius,
			MaxCandidates:     c.ingestMaxCand,
			SigmaKm:           c.ingestSigma,
			BetaKm:            c.ingestBeta,
			MinPointSpacingKm: c.ingestMinSpacing,
		},
		OriginLat: c.ingestOriginLat,
		OriginLon: c.ingestOriginLon,
	}
}

func (c *config) checkpointPath() string { return filepath.Join(c.walDir, checkpointName) }

// logger lowers the -log-level/-log-format flags to the process root
// structured logger (stderr, so it never interleaves with stdout status
// lines); fatal on an unknown level or format name.
func (c *config) logger() *slog.Logger {
	lvl, err := netclus.ParseLogLevel(c.logLevel)
	if err != nil {
		fatal(err)
	}
	lg, err := netclus.NewLogger(os.Stderr, lvl, c.logFormat)
	if err != nil {
		fatal(err)
	}
	return lg
}

func main() {
	var c config
	var fsyncName string
	flag.StringVar(&c.addr, "addr", ":8080", "listen address")
	flag.StringVar(&c.preset, "preset", "beijing", "dataset preset to serve")
	flag.Float64Var(&c.scale, "scale", 0.02, "dataset scale")
	flag.Int64Var(&c.seed, "seed", 42, "generation seed")
	flag.StringVar(&c.loadPath, "load", "", "warm-start from this snapshot file (dataset must match)")
	flag.StringVar(&c.cacheDir, "cache", "", "snapshot-cache directory (warm-starts repeat boots, caches cold builds)")
	flag.IntVar(&c.workers, "workers", 0, "index build parallelism for cold builds (0 = all cores)")
	flag.DurationVar(&c.timeout, "timeout", 10*time.Second, "default per-request deadline")
	flag.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
	flag.StringVar(&c.exitSnapshot, "snapshot-on-exit", "", "write a final index checkpoint here after draining")
	flag.IntVar(&c.shards, "shards", 1, "number of engine shards; queries scatter-gather across them and site updates invalidate only the owning shard")
	flag.StringVar(&c.partitioner, "partitioner", netclus.ShardByHash, "site partitioner for -shards > 1: hash or grid")
	flag.IntVar(&c.shardIndex, "shard-index", -1, "serve as shard member N of a -shards-wide cross-process topology behind topsrouter (exposes /v1/shard/); -1 disables")
	flag.StringVar(&c.walDir, "wal-dir", "", "write-ahead-log directory: log every update, recover on boot (checkpoint + tail replay)")
	flag.StringVar(&fsyncName, "fsync", string(netclus.FsyncEveryInterval), "WAL fsync policy: always (durable acks), interval (group commit), none")
	flag.DurationVar(&c.fsyncInterval, "fsync-interval", 100*time.Millisecond, "group-commit period for -fsync interval")
	flag.DurationVar(&c.checkpointEvery, "checkpoint-every", 0, "write a recovery checkpoint on this period and compact the log (requires -wal-dir)")
	flag.StringVar(&c.follow, "follow", "", "run as a read-replica tailing this primary URL's /v1/log")
	flag.DurationVar(&c.followPoll, "follow-poll", 500*time.Millisecond, "replica fallback polling period for -follow (used when long-polling is off or returns early)")
	flag.DurationVar(&c.followWait, "follow-wait", 10*time.Second, "replica long-poll window for -follow: how long the primary parks an empty /v1/log read; 0 disables long-polling")
	flag.IntVar(&c.quorum, "quorum", 0, "semi-sync replication: acknowledge an update only after this many followers durably persisted it (requires -wal-dir); 0 disables")
	flag.DurationVar(&c.quorumTimeout, "quorum-timeout", 5*time.Second, "how long an update waits for the -quorum before answering 503 quorum_timeout")
	flag.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof profiling endpoints on this address (e.g. localhost:6060); empty disables")
	flag.StringVar(&c.logLevel, "log-level", "info", "structured log level: debug, info, warn, or error")
	flag.StringVar(&c.logFormat, "log-format", "text", "structured log encoding: text or json")
	flag.DurationVar(&c.slowQuery, "slow-query", 0, "log a structured record for queries slower than this (e.g. 250ms); 0 disables")
	flag.IntVar(&c.ingestWorkers, "ingest-workers", 0, "map-matching worker pool for POST /v1/ingest (0 = all cores capped at 8, -1 disables the endpoint)")
	flag.IntVar(&c.ingestBatch, "ingest-batch", 0, "traces per ingest AddTrajectories mutation (0 = default 64)")
	flag.Float64Var(&c.ingestRadius, "ingest-radius", 0, "matcher candidate radius in km (0 = default 0.3)")
	flag.Float64Var(&c.ingestSigma, "ingest-sigma", 0, "matcher GPS noise sigma in km (0 = default 0.05)")
	flag.Float64Var(&c.ingestBeta, "ingest-beta", 0, "matcher transition tolerance in km (0 = default 0.3)")
	flag.IntVar(&c.ingestMaxCand, "ingest-max-candidates", 0, "matcher candidates per GPS point (0 = default 6)")
	flag.Float64Var(&c.ingestMinSpacing, "ingest-min-spacing", 0, "drop GPS points closer than this many km to their predecessor (0 = keep all)")
	flag.Float64Var(&c.ingestOriginLat, "ingest-origin-lat", 0, "projection origin latitude for lat/lon ingest points")
	flag.Float64Var(&c.ingestOriginLon, "ingest-origin-lon", 0, "projection origin longitude for lat/lon ingest points")
	flag.Parse()

	pol, err := netclus.ParseFsyncPolicy(fsyncName)
	if err != nil {
		fatal(err)
	}
	c.fsync = pol
	if c.cacheDir != "" && c.loadPath != "" {
		fatal(fmt.Errorf("-cache and -load are mutually exclusive: the cache decides which snapshot to read"))
	}
	if c.checkpointEvery > 0 && c.walDir == "" {
		fatal(fmt.Errorf("-checkpoint-every needs -wal-dir (checkpoints live in the log directory)"))
	}
	if c.quorum > 0 && c.walDir == "" {
		fatal(fmt.Errorf("-quorum needs -wal-dir (followers acknowledge log positions)"))
	}
	if c.follow != "" && c.loadPath != "" {
		fatal(fmt.Errorf("-follow bootstraps from its -wal-dir checkpoint or the primary; -load does not apply"))
	}
	if c.walDir != "" && c.loadPath != "" {
		fatal(fmt.Errorf("-load and -wal-dir are mutually exclusive: with a WAL, the checkpoint in the log directory decides the starting state"))
	}
	if c.shardIndex >= 0 {
		// Member mode: -shards is the TOPOLOGY-wide shard count, not this
		// host's in-process fan-out, so the NumCPU cap does not apply — a
		// 16-shard topology boots fine on 4-core members.
		if c.shards < 1 {
			fatal(fmt.Errorf("-shard-index needs -shards >= 1 (the topology-wide shard count)"))
		}
		if c.shardIndex >= c.shards {
			fatal(fmt.Errorf("-shard-index %d outside [0, %d)", c.shardIndex, c.shards))
		}
		if c.cacheDir != "" {
			fatal(fmt.Errorf("-cache does not apply to -shard-index member mode (the cache stores whole-topology manifests); use -wal-dir checkpoints for fast member boots"))
		}
		if c.loadPath != "" {
			fatal(fmt.Errorf("-load reads a whole-dataset snapshot; a shard member rebuilds its partition or recovers from its -wal-dir checkpoint"))
		}
	} else {
		nShards, shardWarn, err := netclus.ValidateShardCount(c.shards)
		if err != nil {
			fatal(err)
		}
		if shardWarn != "" {
			fmt.Fprintln(os.Stderr, shardWarn)
		}
		c.shards = nShards
		if c.shards > 1 && c.loadPath != "" {
			fatal(fmt.Errorf("-load reads a single-index snapshot; with -shards > 1 use -cache, which stores a sharded manifest"))
		}
	}

	if c.follow != "" {
		followerMain(&c)
		return
	}
	primaryMain(&c)
}

// primaryMain boots a read-write server: recover from the WAL directory
// when one is configured, otherwise build/warm-load as before.
func primaryMain(c *config) {
	t0 := time.Now()
	var log *netclus.WAL
	var err error
	if c.walDir != "" {
		log, err = netclus.OpenWAL(c.walDir, c.walOptions())
		if err != nil {
			fatal(err)
		}
	}

	var eng netclus.DurableEngine
	var inst *netclus.Instance
	if log != nil && fileExists(c.checkpointPath()) {
		// Recovery fast path: the checkpoint bundles the mutated dataset,
		// so only the immutable graph comes from the preset.
		d, err := netclus.LoadDataset(dataset.Preset(c.preset), netclus.DatasetConfig{Scale: c.scale, Seed: c.seed})
		if err != nil {
			fatal(err)
		}
		inst = d.Instance
		fmt.Println(d.Summary())
		eng, err = netclus.LoadCheckpointFile(c.checkpointPath(), inst.G, netclus.EngineOptions{})
		if err != nil {
			fatal(fmt.Errorf("recovering from %s: %w", c.checkpointPath(), err))
		}
		if c.shardIndex >= 0 {
			if eng, err = memberize(c, eng); err != nil {
				fatal(err)
			}
		} else if c.shards > 1 {
			fmt.Fprintln(os.Stderr, "note: -shards/-partitioner are ignored when recovering from a checkpoint (its topology applies)")
		}
		fmt.Printf("recovered checkpoint %s at LSN %d in %.3fs\n", c.checkpointPath(), eng.LSN(), time.Since(t0).Seconds())
	} else {
		eng, inst, err = buildEngine(c, t0)
		if err != nil {
			fatal(err)
		}
	}

	if log != nil {
		reconcileLog(eng, log, c.walDir)
		n, err := netclus.ReplayWAL(log, eng)
		if err != nil {
			fatal(fmt.Errorf("replaying WAL tail: %w", err))
		}
		if n > 0 {
			fmt.Printf("replayed %d WAL records to LSN %d\n", n, eng.LSN())
		}
		if err := eng.AttachWAL(log); err != nil {
			fatal(err)
		}
		// A durable primary serves under a fencing token. The very first
		// term is 1; recovery keeps the recovered epoch (a restart is not a
		// new term — only promotion opens one).
		if eng.Epoch() == 0 {
			if err := eng.BeginEpoch(1); err != nil {
				fatal(fmt.Errorf("opening epoch 1: %w", err))
			}
		}
	}
	startServer(eng, inst, c, log, nil)
}

// memberize wraps a checkpoint-recovered engine as a shard member. The
// checkpoint holds one shard's partition (a member's WAL only ever logged
// its own mutations); the topology parameters come from the flags, which
// must match what the rest of the topology runs.
func memberize(c *config, eng netclus.DurableEngine) (netclus.DurableEngine, error) {
	se, ok := eng.(*netclus.Engine)
	if !ok {
		return nil, fmt.Errorf("-shard-index needs a single-index checkpoint; this checkpoint holds an in-process sharded topology")
	}
	member, err := netclus.NewShardMember(se, c.shards, c.shardIndex, c.partitioner)
	if err != nil {
		return nil, err
	}
	fmt.Printf("serving as shard member %d of %d (partitioner %s)\n", c.shardIndex, c.shards, c.partitioner)
	return member, nil
}

// reconcileLog handles a checkpoint stamped ahead of the log: under
// group-commit fsync a crash can lose the log's acknowledged tail from the
// page cache while the (always-fsynced) checkpoint survives. Everything
// the log lost is covered by the checkpoint, so the stale log is discarded
// and AttachWAL rebases it at the checkpoint's LSN — the alternative is a
// boot failure an operator can only fix by deleting segment files.
func reconcileLog(eng netclus.DurableEngine, log *netclus.WAL, dir string) {
	if head := log.HeadLSN(); eng.LSN() > head {
		if head > 0 {
			fmt.Fprintf(os.Stderr, "log head LSN %d behind checkpoint LSN %d (tail lost in a crash); resetting %s — the checkpoint covers every lost record\n",
				head, eng.LSN(), dir)
		}
		if err := log.Reset(); err != nil {
			fatal(fmt.Errorf("resetting stale WAL: %w", err))
		}
	}
}

// buildEngine materializes the dataset and its serving engine from the
// preset — warm from the snapshot cache when possible — exactly as a
// WAL-less boot always has.
func buildEngine(c *config, t0 time.Time) (netclus.DurableEngine, *netclus.Instance, error) {
	if c.shardIndex >= 0 {
		d, err := netclus.LoadDataset(dataset.Preset(c.preset), netclus.DatasetConfig{Scale: c.scale, Seed: c.seed})
		if err != nil {
			return nil, nil, err
		}
		fmt.Println(d.Summary())
		member, err := netclus.BuildShardMember(d.Instance, c.shardIndex, netclus.ShardedOptions{
			Shards:      c.shards,
			Partitioner: c.partitioner,
			Build:       netclus.BuildOptions{Workers: c.workers},
		})
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("built shard member %d of %d (partitioner %s) in %.1fs\n",
			c.shardIndex, c.shards, c.partitioner, time.Since(t0).Seconds())
		return member, d.Instance, nil
	}
	if c.shards > 1 {
		d, err := netclus.LoadDataset(dataset.Preset(c.preset), netclus.DatasetConfig{Scale: c.scale, Seed: c.seed})
		if err != nil {
			return nil, nil, err
		}
		inst := d.Instance
		fmt.Println(d.Summary())
		sopts := netclus.ShardedOptions{
			Shards:      c.shards,
			Partitioner: c.partitioner,
			Build:       netclus.BuildOptions{Workers: c.workers},
		}
		var sh *netclus.ShardedEngine
		dir := ""
		if c.cacheDir != "" {
			dir = shardedCacheDir(c.cacheDir, c.preset, c.scale, c.seed, c.shards, c.partitioner)
			warm, err := netclus.LoadShardedDir(dir, inst, sopts)
			switch {
			case err == nil:
				sh = warm
				fmt.Printf("sharded warm load (%d shards) from %s in %.3fs\n", c.shards, dir, time.Since(t0).Seconds())
			case fileExists(filepath.Join(dir, netclus.ShardedManifestName)):
				// A manifest exists but would not load (corrupt file,
				// dataset/generator drift): say why before the expensive
				// cold rebuild overwrites the evidence.
				fmt.Fprintf(os.Stderr, "sharded cache at %s unusable (%v); rebuilding cold\n", dir, err)
			}
		}
		if sh == nil {
			sh, err = netclus.NewShardedEngine(inst, sopts)
			if err != nil {
				return nil, nil, err
			}
			how := "sharded cold build"
			if dir != "" {
				// Best-effort cache population, mirroring LoadIndexedDataset:
				// an unwritable cache never fails the boot.
				if err := netclus.SaveShardedDir(sh, dir); err != nil {
					fmt.Fprintf(os.Stderr, "sharded snapshot cache not written: %v\n", err)
				} else {
					how += " + cache"
				}
			}
			fmt.Printf("%s (%d shards, partitioner %s) in %.1fs\n", how, c.shards, c.partitioner, time.Since(t0).Seconds())
		}
		return sh, inst, nil
	}
	var inst *netclus.Instance
	var idx *netclus.Index
	switch {
	case c.cacheDir != "":
		di, err := netclus.LoadIndexedDataset(dataset.Preset(c.preset),
			netclus.DatasetConfig{Scale: c.scale, Seed: c.seed, CacheDir: c.cacheDir},
			netclus.BuildOptions{Workers: c.workers})
		if err != nil {
			return nil, nil, err
		}
		inst, idx = di.Instance, di.Index
		how := "cold build + cache"
		if di.WarmLoaded {
			how = "warm load"
		}
		fmt.Printf("%s\nindex via %s (%s) in %.3fs\n", di.Summary(), how, di.SnapshotPath, time.Since(t0).Seconds())
	default:
		d, err := netclus.LoadDataset(dataset.Preset(c.preset), netclus.DatasetConfig{Scale: c.scale, Seed: c.seed})
		if err != nil {
			return nil, nil, err
		}
		inst = d.Instance
		fmt.Println(d.Summary())
		if c.loadPath != "" {
			idx, err = netclus.LoadFile(c.loadPath, inst)
			if err != nil {
				return nil, nil, err
			}
			fmt.Printf("warm-started from %s in %.3fs\n", c.loadPath, time.Since(t0).Seconds())
		} else {
			idx, err = netclus.Build(inst, netclus.BuildOptions{Workers: c.workers})
			if err != nil {
				return nil, nil, err
			}
			fmt.Printf("cold build in %.1fs (%d instances, %.1f MB)\n",
				time.Since(t0).Seconds(), len(idx.Instances), float64(idx.MemoryBytes())/(1<<20))
		}
	}
	eng, err := netclus.NewEngine(idx, netclus.EngineOptions{})
	if err != nil {
		return nil, nil, err
	}
	return eng, inst, nil
}

// followerMain boots a read-replica: recover local state (checkpoint +
// local log) when -wal-dir is set, bootstrap from the primary's log or
// checkpoint otherwise, then tail /v1/log forever.
func followerMain(c *config) {
	t0 := time.Now()
	ctx := context.Background()
	// The dataset is only materialized on the paths that need it directly
	// (checkpoint loads want just the immutable graph); the buildEngine
	// path loads it itself, so loading eagerly here would do the
	// multi-second generation twice per boot.
	var inst *netclus.Instance
	loadInst := func() *netclus.Instance {
		if inst == nil {
			d, err := netclus.LoadDataset(dataset.Preset(c.preset), netclus.DatasetConfig{Scale: c.scale, Seed: c.seed})
			if err != nil {
				fatal(err)
			}
			inst = d.Instance
			fmt.Println(d.Summary())
		}
		return inst
	}

	var log *netclus.WAL
	var err error
	if c.walDir != "" {
		log, err = netclus.OpenWAL(c.walDir, c.walOptions())
		if err != nil {
			fatal(err)
		}
	}
	var eng netclus.DurableEngine
	if log != nil && fileExists(c.checkpointPath()) {
		eng, err = netclus.LoadCheckpointFile(c.checkpointPath(), loadInst().G, netclus.EngineOptions{})
		if err != nil {
			fatal(fmt.Errorf("recovering local checkpoint: %w", err))
		}
		if c.shardIndex >= 0 {
			if eng, err = memberize(c, eng); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("recovered local checkpoint at LSN %d in %.3fs\n", eng.LSN(), time.Since(t0).Seconds())
	}
	if eng == nil {
		// No local checkpoint. A preset-built engine (LSN 0) can only
		// catch up by replaying the history from LSN 1, so that path needs
		// the local log to start at 1 (or be empty) AND the primary to
		// stream the rest; otherwise bootstrap from a checkpoint.
		localFirst := uint64(0)
		localHead := uint64(0)
		if log != nil {
			localFirst, localHead = log.FirstLSN(), log.HeadLSN()
		}
		localComplete := localFirst <= 1 // empty (0) or history from 1
		probeFrom := uint64(1)
		if localComplete && localHead > 0 {
			probeFrom = localHead + 1
		}
		ok, err := netclus.LogAvailableFrom(ctx, nil, c.follow, probeFrom)
		if err != nil {
			fatal(fmt.Errorf("probing primary %s: %w", c.follow, err))
		}
		if ok && localComplete {
			eng, inst, err = buildEngine(c, t0)
			if err != nil {
				fatal(err)
			}
		} else {
			fmt.Printf("replay from LSN 1 unavailable (primary serves from %d: %v, local log covers [%d,%d]); bootstrapping from the primary's checkpoint\n",
				probeFrom, ok, localFirst, localHead)
			if c.shards > 1 && c.shardIndex < 0 {
				fmt.Fprintln(os.Stderr, "note: -shards is ignored when bootstrapping from a primary checkpoint (its topology applies)")
			}
			body, err := netclus.FetchCheckpoint(ctx, nil, c.follow)
			if err != nil {
				fatal(err)
			}
			eng, err = netclus.LoadCheckpoint(body, loadInst().G, netclus.EngineOptions{})
			body.Close()
			if err != nil {
				fatal(fmt.Errorf("loading primary checkpoint: %w", err))
			}
			if c.shardIndex >= 0 {
				if eng, err = memberize(c, eng); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("bootstrapped from primary checkpoint at LSN %d in %.3fs\n", eng.LSN(), time.Since(t0).Seconds())
			// A stale local log that does not end exactly at the
			// checkpoint cannot extend it; it is a cache of the primary's
			// stream, so discard it rather than wedge.
			if log != nil && !log.IsEmpty() && log.HeadLSN() != eng.LSN() {
				fmt.Fprintf(os.Stderr, "local WAL at LSN %d does not line up with the checkpoint; resetting %s\n", log.HeadLSN(), c.walDir)
				if err := log.Reset(); err != nil {
					fatal(fmt.Errorf("resetting local WAL: %w", err))
				}
			}
		}
	}
	if log != nil {
		reconcileLog(eng, log, c.walDir)
		n, err := netclus.ReplayWAL(log, eng)
		if err != nil {
			fatal(fmt.Errorf("replaying local WAL tail: %w", err))
		}
		if n > 0 {
			fmt.Printf("replayed %d local WAL records to LSN %d\n", n, eng.LSN())
		}
	}
	wait := c.followWait
	if wait <= 0 {
		wait = -1 // follower convention: negative disables long-polling
	}
	fol, err := netclus.NewFollower(c.follow, eng, log, netclus.FollowerOptions{Poll: c.followPoll, Wait: wait})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("following %s from LSN %d (poll %v, long-poll %v)\n", c.follow, eng.LSN(), c.followPoll, c.followWait)
	startServer(eng, inst, c, log, fol)
}

// startServer mounts the HTTP layer over any serving engine, runs the
// optional checkpoint timer and follower loop, waits for SIGTERM/SIGINT,
// drains, and writes final checkpoints.
func startServer(eng netclus.DurableEngine, inst *netclus.Instance, c *config, log *netclus.WAL, fol *netclus.Follower) {
	sopts := netclus.ServeOptions{
		DefaultTimeout: c.timeout,
		Log:            log,
		Quorum:         c.quorum,
		QuorumTimeout:  c.quorumTimeout,
		Ingest:         c.ingestOptions(),
		Logger:         c.logger(),
		SlowQuery:      c.slowQuery,
	}
	if m, ok := eng.(*netclus.ShardMember); ok {
		sopts.Member = m
	}
	if sopts.Ingest != nil {
		fmt.Printf("ingest: POST /v1/ingest enabled (workers %d, batch %d)\n",
			sopts.Ingest.Workers, sopts.Ingest.MaxBatch)
	}

	bg, stopBg := context.WithCancel(context.Background())
	defer stopBg()
	var folCtx context.Context
	var folCancel context.CancelFunc
	var folDone chan struct{}
	if fol != nil {
		sopts.ReadOnly = true
		sopts.Replication = fol.Status
		// POST /v1/follow re-points the tail loop at a promoted primary
		// without a restart (the surviving-follower half of a failover).
		sopts.Retarget = fol.Retarget
		folCtx, folCancel = context.WithCancel(bg)
		folDone = make(chan struct{})
		// Promotion: stop tailing the deposed primary, replay whatever the
		// tail loop already persisted locally but had not applied, attach
		// the local log for new writes, and open a strictly newer epoch so
		// the old primary is fenced the moment it hears from this node.
		sopts.Promote = func(ctx context.Context) (uint64, error) {
			folCancel()
			select {
			case <-folDone:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if log != nil {
				if n, err := netclus.ReplayWAL(log, eng); err != nil {
					return 0, fmt.Errorf("replaying local tail: %w", err)
				} else if n > 0 {
					fmt.Printf("promote: replayed %d local records to LSN %d\n", n, eng.LSN())
				}
				if err := eng.AttachWAL(log); err != nil {
					return 0, fmt.Errorf("attaching local log: %w", err)
				}
			}
			epoch := eng.Epoch() + 1
			if err := eng.BeginEpoch(epoch); err != nil {
				return 0, err
			}
			fmt.Printf("promoted to primary: epoch %d at LSN %d\n", epoch, eng.LSN())
			return epoch, nil
		}
	}
	srv, err := netclus.NewServer(eng, sopts)
	if err != nil {
		fatal(err)
	}

	if c.pprofAddr != "" {
		go servePprof(c.pprofAddr)
	}
	if fol != nil {
		go func() {
			defer close(folDone)
			fol.Run(folCtx)
		}()
	}
	// ckptDone joins the periodic-checkpoint goroutine on shutdown: the
	// final checkpoint below must not race a stale in-flight periodic one,
	// which could otherwise rename an older-LSN checkpoint into place
	// after the log was compacted past it.
	var ckptDone chan struct{}
	if c.checkpointEvery > 0 {
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			checkpointLoop(bg, eng, log, c.checkpointPath(), c.checkpointEvery)
		}()
	}

	httpSrv := &http.Server{Addr: c.addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		role := "serving"
		if fol != nil {
			role = "serving (read-replica)"
		}
		// A recovered engine's dataset has diverged from the preset
		// instance by its replayed mutations, so the preset counts would
		// be wrong; report the recovery LSN instead.
		if lsn := eng.LSN(); lsn > 0 {
			fmt.Printf("%s recovered state at LSN %d on %s\n", role, lsn, c.addr)
		} else {
			fmt.Printf("%s %d trajectories / %d sites on %s\n", role, inst.M(), inst.N(), c.addr)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("\n%s: draining (up to %v)…\n", sig, c.drainTimeout)
	}

	// Drain: stop advertising health, let in-flight requests finish, then
	// stop the background loops.
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
	}
	stopBg()
	if ckptDone != nil {
		<-ckptDone
	}

	if c.exitSnapshot != "" {
		if err := writeStream(c.exitSnapshot, eng.Snapshot); err != nil {
			fatal(fmt.Errorf("final snapshot: %w", err))
		}
		fmt.Printf("final snapshot written to %s\n", c.exitSnapshot)
	}
	if c.checkpointEvery > 0 {
		if err := checkpointOnce(eng, log, c.checkpointPath()); err != nil {
			fmt.Fprintf(os.Stderr, "final checkpoint: %v\n", err)
		} else {
			fmt.Printf("final checkpoint written to %s\n", c.checkpointPath())
		}
	}
	if log != nil {
		if err := log.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing WAL: %v\n", err)
		}
	}
	fmt.Println("drained; bye")
}

// servePprof exposes the runtime profiling endpoints on their own listener,
// so profiles can be pulled from a production server without mixing the
// debug surface into the query API's address (which may be public):
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:6060/debug/pprof/allocs
//	curl -s localhost:6060/debug/pprof/heap -o heap.pb.gz
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("pprof on %s\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
	}
}

// checkpointLoop writes a recovery checkpoint every period and compacts
// the log up to the LSN the checkpoint is guaranteed to cover.
func checkpointLoop(ctx context.Context, eng netclus.DurableEngine, log *netclus.WAL, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := checkpointOnce(eng, log, path); err != nil {
				fmt.Fprintf(os.Stderr, "periodic checkpoint: %v\n", err)
			}
		}
	}
}

// checkpointOnce writes one checkpoint atomically and advances compaction.
// The watermark is the engine's LSN observed before the write: the
// checkpoint is stamped at least that high, so every compacted record is
// covered by it.
func checkpointOnce(eng netclus.DurableEngine, log *netclus.WAL, path string) error {
	watermark := eng.LSN()
	if err := netclus.SaveCheckpointFile(eng, path); err != nil {
		return err
	}
	if log != nil {
		if _, err := log.Compact(watermark); err != nil {
			return fmt.Errorf("compacting log: %w", err)
		}
	}
	return nil
}

// writeStream checkpoints a stream-writing method atomically (temp file +
// fsync + rename, via the WAL package's audited helper). A sharded
// engine's Snapshot writes its container format; reload it with
// netclus.LoadShardedSnapshot against the same full dataset.
func writeStream(path string, fill func(io.Writer) (int64, error)) error {
	return wal.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := fill(w)
		return err
	})
}
