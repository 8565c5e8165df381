// Command topsserve serves TOPS queries over HTTP. Every process starts the
// same way (boot): it materializes the dataset preset, opens the -wal-dir
// log, picks a starting checkpoint — the log directory's recovery
// checkpoint, the -load file, a follower's primary checkpoint, or the
// -cache entry — builds cold when there is none, joins the shard topology
// under -shard-index, and replays the local log tail. Only then do the
// roles differ: a primary attaches the log and opens its epoch, a
// read-replica (-follow) tails its primary. A process serves one index,
// behind the internal/server JSON API with per-request deadlines and
// graceful drain. A sharded deployment is one process per shard: members
// started with -shards N -shard-index j, fronted by topsrouter; -shards
// without -shard-index is rejected.
//
// Every file topsserve reads or writes is one format, the NCCK checkpoint
// (dataset state plus the LSN-stamped index): -cache keeps the cold build as
// one at LSN 0, keyed by the dataset fingerprint and the topology; -load
// starts from one; -snapshot-on-exit, -checkpoint-every and POST
// /v1/checkpoint write one.
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
//	topsserve -preset beijing -scale 0.02 -shards 4 -shard-index 0 -wal-dir ./wal0   # behind topsrouter
//	topsserve -preset beijing -scale 0.02 -follow http://primary:8080 -addr :8081
//	topsserve -preset beijing -scale 0.02 -wal-dir ./wal -quorum 1
//	topsserve -preset beijing -scale 0.02 -snapshot-on-exit state.ncck
//	topsserve -preset beijing -scale 0.02 -load state.ncck
//
// Query it:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/query -d '{"k":5,"tau":0.8}'
//	curl -s -X POST localhost:8080/v1/update -d '{"op":"delete_site","node":17}'
//	curl -s -X POST localhost:8080/v1/checkpoint -o backup.ncck
//	curl -s 'localhost:8080/v1/log?from=1' -o records.bin
//	curl -s localhost:8080/statsz
//
// SIGTERM/SIGINT starts a graceful drain: /healthz flips to 503 so load
// balancers stop routing here, in-flight requests finish (bounded by
// -drain-timeout), and the optional -snapshot-on-exit / final checkpoints
// are written before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"netclus"
	"netclus/internal/dataset"
)

// checkpointName is the recovery bundle inside -wal-dir.
const checkpointName = "checkpoint.ncck"

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// config carries the parsed flags; validate checks and lowers them.
type config struct {
	addr         string
	preset       string
	scale        float64
	seed         int64
	loadPath     string
	cacheDir     string
	timeout      time.Duration
	drainTimeout time.Duration
	exitSnapshot string
	shards       int
	shardIndex   int

	walDir          string
	fsyncName       string
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
	logger          *slog.Logger
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

// flags registers every topsserve flag on a new set bound to c.
func (c *config) flags(onError flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("topsserve", onError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.preset, "preset", "beijing", "dataset preset to serve")
	fs.Float64Var(&c.scale, "scale", 0.02, "dataset scale")
	fs.Int64Var(&c.seed, "seed", 42, "generation seed")
	fs.StringVar(&c.loadPath, "load", "", "start from this checkpoint file (as -snapshot-on-exit or POST /v1/checkpoint wrote it)")
	fs.StringVar(&c.cacheDir, "cache", "", "checkpoint-cache directory: a cold build is stored here, keyed by dataset fingerprint and topology, and later boots start from it")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Second, "default per-request deadline")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
	fs.StringVar(&c.exitSnapshot, "snapshot-on-exit", "", "write a checkpoint here after draining (reload it with -load)")
	fs.IntVar(&c.shards, "shards", 1, "topology-wide shard count of a -shard-index member (each shard is its own process behind topsrouter)")
	fs.IntVar(&c.shardIndex, "shard-index", -1, "serve as shard member N of a -shards-wide cross-process topology behind topsrouter (exposes /v1/shard/); -1 disables")
	fs.StringVar(&c.walDir, "wal-dir", "", "write-ahead-log directory: log every update, recover on boot (checkpoint + tail replay)")
	fs.StringVar(&c.fsyncName, "fsync", string(netclus.FsyncEveryInterval), "WAL fsync policy: always (durable acks), interval (group commit), none")
	fs.DurationVar(&c.fsyncInterval, "fsync-interval", 100*time.Millisecond, "group-commit period for -fsync interval")
	fs.DurationVar(&c.checkpointEvery, "checkpoint-every", 0, "write a recovery checkpoint on this period and compact the log (requires -wal-dir)")
	fs.StringVar(&c.follow, "follow", "", "run as a read-replica tailing this primary URL's /v1/log")
	fs.DurationVar(&c.followPoll, "follow-poll", 500*time.Millisecond, "replica fallback polling period for -follow (used when long-polling is off or returns early)")
	fs.DurationVar(&c.followWait, "follow-wait", 10*time.Second, "replica long-poll window for -follow: how long the primary parks an empty /v1/log read; 0 disables long-polling")
	fs.IntVar(&c.quorum, "quorum", 0, "semi-sync replication: acknowledge an update only after this many followers durably persisted it (requires -wal-dir); 0 disables")
	fs.DurationVar(&c.quorumTimeout, "quorum-timeout", 5*time.Second, "how long an update waits for the -quorum before answering 503 quorum_timeout")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof profiling endpoints on this address (e.g. localhost:6060); empty disables")
	fs.StringVar(&c.logLevel, "log-level", "info", "structured log level: debug, info, warn, or error")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.DurationVar(&c.slowQuery, "slow-query", 0, "log a structured record for queries slower than this (e.g. 250ms); 0 disables")
	fs.IntVar(&c.ingestWorkers, "ingest-workers", 0, "map-matching worker pool for POST /v1/ingest (0 = all cores capped at 8, -1 disables the endpoint)")
	fs.IntVar(&c.ingestBatch, "ingest-batch", 0, "traces per ingest AddTrajectories mutation (0 = default 64)")
	fs.Float64Var(&c.ingestRadius, "ingest-radius", 0, "matcher candidate radius in km (0 = default 0.3)")
	fs.Float64Var(&c.ingestSigma, "ingest-sigma", 0, "matcher GPS noise sigma in km (0 = default 0.05)")
	fs.Float64Var(&c.ingestBeta, "ingest-beta", 0, "matcher transition tolerance in km (0 = default 0.3)")
	fs.IntVar(&c.ingestMaxCand, "ingest-max-candidates", 0, "matcher candidates per GPS point (0 = default 6)")
	fs.Float64Var(&c.ingestMinSpacing, "ingest-min-spacing", 0, "drop GPS points closer than this many km to their predecessor (0 = keep all)")
	fs.Float64Var(&c.ingestOriginLat, "ingest-origin-lat", 0, "projection origin latitude for lat/lon ingest points")
	fs.Float64Var(&c.ingestOriginLon, "ingest-origin-lon", 0, "projection origin longitude for lat/lon ingest points")
	return fs
}

// validate rejects the flag combinations that genuinely conflict and lowers
// the named settings (fsync policy, structured logger). It is the one place
// a mode's preconditions live.
func (c *config) validate() error {
	var err error
	if c.fsync, err = netclus.ParseFsyncPolicy(c.fsyncName); err != nil {
		return err
	}
	lvl, err := netclus.ParseLogLevel(c.logLevel)
	if err != nil {
		return err
	}
	// Structured logs go to stderr, so they never interleave with the
	// stdout status lines.
	if c.logger, err = netclus.NewLogger(os.Stderr, lvl, c.logFormat); err != nil {
		return err
	}
	if c.loadPath != "" && (c.walDir != "" || c.follow != "" || c.cacheDir != "") {
		return fmt.Errorf("-load is a starting state of its own: it does not combine with -wal-dir, -follow or -cache, which pick the starting checkpoint themselves")
	}
	if c.checkpointEvery > 0 && c.walDir == "" {
		return fmt.Errorf("-checkpoint-every needs -wal-dir (checkpoints live in the log directory)")
	}
	if c.quorum > 0 && c.walDir == "" {
		return fmt.Errorf("-quorum needs -wal-dir (followers acknowledge log positions)")
	}
	switch {
	case c.shardIndex >= 0:
		// Member mode: -shards is the topology-wide shard count, so a
		// 16-shard topology boots fine on 4-core members.
		if c.shardIndex >= c.shards {
			return fmt.Errorf("-shard-index %d outside [0, %d) (-shards is the topology-wide shard count)", c.shardIndex, c.shards)
		}
	case c.shards < 1:
		return fmt.Errorf("-shards %d: need a positive shard count", c.shards)
	case c.shards > 1:
		return fmt.Errorf("-shards %d without -shard-index: a topsserve process serves one index; run %d members (-shards %d -shard-index 0..%d) behind topsrouter",
			c.shards, c.shards, c.shards, c.shards-1)
	}
	return nil
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

// cachePath names the -cache entry for inst. The key covers everything a
// cold build depends on — the dataset (by fingerprint, so generator drift
// misses instead of failing), the shard count, the site partition rule, the
// member index and the rule that derives the τ range — so a different
// topology, or a ladder derived another way, never loads another's entry.
func (c *config) cachePath(inst *netclus.Instance) string {
	name := fmt.Sprintf("%s-%016x-%dx%s", c.preset, netclus.IndexFingerprint(inst), c.shards, netclus.ShardPartitionRule)
	if c.shardIndex >= 0 {
		name += fmt.Sprintf("-member%d", c.shardIndex)
	}
	return filepath.Join(c.cacheDir, name+"-"+netclus.TauRangeRule+".ncck")
}

func main() {
	var c config
	c.flags(flag.ExitOnError).Parse(os.Args[1:])
	if err := c.validate(); err != nil {
		fatal(err)
	}
	b, err := boot(&c)
	if err != nil {
		fatal(err)
	}
	var fol *netclus.Follower
	if c.follow != "" {
		wait := c.followWait
		if wait <= 0 {
			wait = -1 // follower convention: negative disables long-polling
		}
		fol, err = netclus.NewFollower(c.follow, b.eng, b.log, netclus.FollowerOptions{Poll: c.followPoll, Wait: wait})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("following %s from LSN %d (poll %v, long-poll %v)\n", c.follow, b.eng.LSN(), c.followPoll, c.followWait)
	} else if b.log != nil {
		if err := b.eng.AttachWAL(b.log); err != nil {
			fatal(err)
		}
		// A durable primary serves under a fencing token. The very first
		// term is 1; recovery keeps the recovered epoch (a restart is not a
		// new term — only promotion opens one).
		if b.eng.Epoch() == 0 {
			if err := b.eng.BeginEpoch(1); err != nil {
				fatal(fmt.Errorf("opening epoch 1: %w", err))
			}
		}
	}
	startServer(b.eng, &c, b.log, fol)
}

// Where a boot's starting state comes from, in precedence order.
const (
	fromRecovery = "recovery" // -wal-dir's checkpoint
	fromLoad     = "-load"
	fromPrimary  = "primary" // a follower that cannot replay from LSN 1
	fromCache    = "cache"
)

// source is a starting checkpoint: its kind, where it is, and how to read it.
type source struct {
	kind, where string
	open        func() (io.ReadCloser, error)
}

// booted is a started engine, before it takes its role.
type booted struct {
	eng  netclus.DurableEngine
	log  *netclus.WAL // nil without -wal-dir
	from string       // the kind of checkpoint the state started from; "" after a cold build
}

// boot is the start-up path of every mode: materialize the dataset, open
// the log, load the starting checkpoint (see start) or build cold — storing
// the build under -cache — join the shard topology under -shard-index, and
// replay the log tail.
func boot(c *config) (*booted, error) {
	t0 := time.Now()
	d, err := netclus.LoadDataset(dataset.Preset(c.preset), netclus.DatasetConfig{Scale: c.scale, Seed: c.seed})
	if err != nil {
		return nil, err
	}
	fmt.Println(d.Summary())
	inst := d.Instance
	b := &booted{}
	if c.walDir != "" {
		if b.log, err = netclus.OpenWAL(c.walDir, netclus.WALOptions{Policy: c.fsync, Interval: c.fsyncInterval}); err != nil {
			return nil, err
		}
	}
	src, err := c.start(b.log, inst)
	if err != nil {
		return nil, err
	}
	if src != nil {
		var loaded *netclus.Engine
		var r io.ReadCloser
		if r, err = src.open(); err == nil {
			loaded, err = netclus.LoadCheckpoint(r, inst.G, netclus.EngineOptions{})
			r.Close()
		}
		switch {
		case err == nil:
			b.eng, b.from = loaded, src.kind
			fmt.Printf("started from %s checkpoint %s (%s) at LSN %d in %.3fs\n",
				src.kind, src.where, topology(b.eng), b.eng.LSN(), time.Since(t0).Seconds())
		case src.kind == fromCache:
			// A missing entry is a cache miss. A corrupt or foreign one: say
			// why before the cold build overwrites the evidence.
			if !errors.Is(err, fs.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "cache entry %s unusable (%v); building cold\n", src.where, err)
			}
		default:
			return nil, fmt.Errorf("loading %s checkpoint %s: %w", src.kind, src.where, err)
		}
	}
	// While the state is the preset's, the router may seed its dense site
	// ids from the preset's site order; a recovered member no longer knows it.
	initial := inst.Sites
	if b.eng == nil {
		if b.eng, err = coldBuild(c, inst); err != nil {
			return nil, err
		}
		how := "cold build"
		if src != nil {
			// Only the -cache entry falls through to a cold build; store the
			// build there, best-effort: an unwritable cache never fails the
			// boot.
			if err := netclus.SaveCheckpointFile(b.eng, src.where); err != nil {
				fmt.Fprintf(os.Stderr, "cache entry not written: %v\n", err)
			} else {
				how += " + cache " + src.where
			}
		}
		fmt.Printf("%s (%s) in %.1fs\n", how, topology(b.eng), time.Since(t0).Seconds())
	} else if b.from != fromCache {
		initial = nil
	}
	if b.eng, err = memberize(c, b.eng, initial); err != nil {
		return nil, err
	}
	if b.log != nil {
		if err := reconcileLog(b.eng, b.log, c.walDir, b.from == fromPrimary); err != nil {
			return nil, err
		}
		n, err := netclus.ReplayWAL(b.log, b.eng)
		if err != nil {
			return nil, fmt.Errorf("replaying WAL tail: %w", err)
		}
		if n > 0 {
			fmt.Printf("replayed %d WAL records to LSN %d\n", n, b.eng.LSN())
		}
	}
	return b, nil
}

// start picks the starting checkpoint in the one precedence order: the
// -wal-dir recovery checkpoint, the -load file, the primary's checkpoint (a
// follower only, and only when replay from LSN 1 is impossible), the -cache
// entry (absent until a cold build stores it). nil means build cold.
func (c *config) start(log *netclus.WAL, inst *netclus.Instance) (*source, error) {
	file := func(kind, path string) *source {
		return &source{kind, path, func() (io.ReadCloser, error) { return os.Open(path) }}
	}
	switch {
	case log != nil && fileExists(c.checkpointPath()):
		return file(fromRecovery, c.checkpointPath()), nil
	case c.loadPath != "":
		return file(fromLoad, c.loadPath), nil
	}
	if c.follow != "" {
		// An engine built from the preset (LSN 0) catches up only by
		// replaying history from LSN 1: the local log must start there (or
		// be empty) and the primary must stream the rest.
		var first, head uint64
		if log != nil {
			first, head = log.FirstLSN(), log.HeadLSN()
		}
		from := uint64(1)
		if first <= 1 && head > 0 {
			from = head + 1
		}
		ok, err := netclus.LogAvailableFrom(context.Background(), nil, c.follow, from)
		if err != nil {
			return nil, fmt.Errorf("probing primary %s: %w", c.follow, err)
		}
		if !ok || first > 1 {
			fmt.Printf("replay from LSN 1 unavailable (primary serves from %d: %v, local log covers [%d,%d]); bootstrapping from the primary's checkpoint\n",
				from, ok, first, head)
			return &source{fromPrimary, c.follow, func() (io.ReadCloser, error) {
				return netclus.FetchCheckpoint(context.Background(), nil, c.follow)
			}}, nil
		}
	}
	if c.cacheDir != "" {
		return file(fromCache, c.cachePath(inst)), nil
	}
	return nil, nil
}

// coldBuild indexes the preset — the whole of it, or under -shard-index
// this member's partition — at core.Build's default parallelism.
func coldBuild(c *config, inst *netclus.Instance) (netclus.DurableEngine, error) {
	if c.shardIndex >= 0 {
		return netclus.BuildShardMember(inst, c.shardIndex, netclus.ShardedOptions{Shards: c.shards})
	}
	idx, err := netclus.Build(inst, netclus.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return netclus.NewEngine(idx, netclus.EngineOptions{})
}

// topology names an engine's shape for the boot log.
func topology(eng netclus.DurableEngine) string {
	if m, ok := eng.(*netclus.ShardMember); ok {
		return fmt.Sprintf("shard member %d", m.ShardIndex())
	}
	return "single index"
}

// memberize makes the engine shard member c.shardIndex of a -shards-wide
// topology; outside member mode it passes the engine through. A cold build
// already is a member. A checkpoint holds one shard's partition as a single
// index (a member's WAL only ever logged its own mutations), joined to the
// topology the flags name, which must match what the rest of the topology
// runs; initial is the preset's site order when the state is still the
// preset's.
func memberize(c *config, eng netclus.DurableEngine, initial []netclus.NodeID) (netclus.DurableEngine, error) {
	if c.shardIndex < 0 {
		return eng, nil
	}
	if e, ok := eng.(*netclus.Engine); ok {
		m, err := netclus.NewShardMember(e, c.shards, c.shardIndex, initial)
		if err != nil {
			return nil, err
		}
		eng = m
	}
	fmt.Printf("serving as shard member %d of %d\n", c.shardIndex, c.shards)
	return eng, nil
}

// reconcileLog discards a local log that cannot extend the starting
// checkpoint; AttachWAL (or the follower) then rebases it at the
// checkpoint's LSN.
//   - A checkpoint stamped ahead of the log: under group-commit fsync a
//     crash can lose the log's acknowledged tail from the page cache while
//     the (always-fsynced) checkpoint survives. The checkpoint covers every
//     lost record; the alternative is a boot failure an operator can only
//     fix by deleting segment files.
//   - A follower that bootstrapped from its primary's checkpoint: its log
//     is a cache of the primary's stream, so one that does not end exactly
//     at the checkpoint is discarded rather than left to wedge replay.
func reconcileLog(eng netclus.DurableEngine, log *netclus.WAL, dir string, fromPrimary bool) error {
	head := log.HeadLSN()
	switch {
	case fromPrimary && !log.IsEmpty() && head != eng.LSN():
		fmt.Fprintf(os.Stderr, "local WAL at LSN %d does not line up with the checkpoint; resetting %s\n", head, dir)
	case eng.LSN() > head:
		if head > 0 {
			fmt.Fprintf(os.Stderr, "log head LSN %d behind checkpoint LSN %d (tail lost in a crash); resetting %s — the checkpoint covers every lost record\n",
				head, eng.LSN(), dir)
		}
	default:
		return nil
	}
	if err := log.Reset(); err != nil {
		return fmt.Errorf("resetting stale WAL: %w", err)
	}
	return nil
}

// startServer mounts the HTTP layer over any serving engine, runs the
// optional checkpoint timer and follower loop, waits for SIGTERM/SIGINT,
// drains, and writes final checkpoints.
func startServer(eng netclus.DurableEngine, c *config, log *netclus.WAL, fol *netclus.Follower) {
	sopts := netclus.ServeOptions{
		DefaultTimeout: c.timeout,
		Log:            log,
		Quorum:         c.quorum,
		QuorumTimeout:  c.quorumTimeout,
		Ingest:         c.ingestOptions(),
		Logger:         c.logger,
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
		fmt.Printf("%s at LSN %d on %s\n", role, eng.LSN(), c.addr)
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
		if err := netclus.SaveCheckpointFile(eng, c.exitSnapshot); err != nil {
			fatal(fmt.Errorf("exit checkpoint: %w", err))
		}
		fmt.Printf("exit checkpoint written to %s\n", c.exitSnapshot)
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
// debug surface into the query API's address (which may be public). The
// net/http/pprof import registers them on http.DefaultServeMux, which only
// this listener serves:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:6060/debug/pprof/allocs
//	curl -s localhost:6060/debug/pprof/heap -o heap.pb.gz
func servePprof(addr string) {
	fmt.Printf("pprof on %s\n", addr)
	if err := http.ListenAndServe(addr, nil); err != nil {
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
