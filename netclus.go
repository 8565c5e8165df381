package netclus

// This file is the stable public facade of the module. Everything behind it
// lives under internal/ and cannot be imported directly by other modules;
// the aliases and constructors here re-export the supported surface:
//
//	problem types      Instance, Preference, QueryOptions, QueryResult
//	index              Index, BuildOptions, Build
//	serving            Engine, EngineOptions, EngineStats, NewEngine
//	network serving    Server, ServeOptions, ServeLimits, NewServer
//	sharding           ShardMember, Router (one process per shard)
//	data               Graph, TrajectoryStore, Dataset presets and loaders
//
// Applications hold one Index per dataset, wrap it in one Engine, and send
// all traffic — queries and §6 updates — through the Engine; a process
// serves one index. See examples/quickstart for the end-to-end pattern.

import (
	"errors"
	"fmt"
	"io"
	"os"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/ingest"
	"netclus/internal/mapmatch"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/router"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// Problem types.
type (
	// Instance bundles the TOPS inputs: road network, trajectories, sites.
	Instance = tops.Instance
	// Preference is the distance-decaying preference function ψ with its
	// coverage threshold τ.
	Preference = tops.Preference
	// SiteID is a dense candidate-site id within an Instance.
	SiteID = tops.SiteID
	// NodeID is a road-network node id.
	NodeID = roadnet.NodeID
	// Graph is a directed road network.
	Graph = roadnet.Graph
	// TrajectoryStore is an indexed trajectory collection.
	TrajectoryStore = trajectory.Store
	// Trajectory is one map-matched user trajectory.
	Trajectory = trajectory.Trajectory
	// TrajectoryID addresses a trajectory within a store.
	TrajectoryID = trajectory.ID
	// GreedyOptions forwards advanced IncGreedy knobs (existing services,
	// lazy evaluation, TOPS4 target coverage) through QueryOptions.Greedy.
	GreedyOptions = tops.GreedyOptions
)

// InvalidSiteID marks a node that is not (or no longer) a candidate site in
// QueryResult.SiteIDs.
const InvalidSiteID = tops.InvalidSiteID

// NewInstance validates and assembles a TOPS problem instance.
func NewInstance(g *Graph, trajs *TrajectoryStore, sites []NodeID) (*Instance, error) {
	return tops.NewInstance(g, trajs, sites)
}

// NewTrajectory builds a trajectory from a node sequence over g, pricing
// each hop at the edge weight (or shortest-path distance).
func NewTrajectory(g *Graph, nodes []NodeID) (*Trajectory, error) {
	return trajectory.New(g, nodes)
}

// Preference constructors (Definition 2 instances).
var (
	// Binary covers a trajectory iff its detour is within τ (TOPS1).
	Binary = tops.Binary
	// Linear decays linearly from 1 at zero detour to 0 at τ.
	Linear = tops.Linear
	// ConvexQuadratic is the (1-d/τ)² market-share model (TOPS2).
	ConvexQuadratic = tops.ConvexQuadratic
	// ExpDecay is exp(-λ·d) truncated at τ.
	ExpDecay = tops.ExpDecay
	// NegativeDistance is the TOPS3 deviation-minimizing preference.
	NegativeDistance = tops.NegativeDistance
)

// Index types.
type (
	// Index is the multi-resolution NETCLUS index.
	Index = core.Index
	// BuildOptions configures index construction (γ, τ range, clustering).
	BuildOptions = core.Options
	// QueryOptions carries the online TOPS query parameters (k, ψ, FM).
	QueryOptions = core.QueryOptions
	// QueryResult is the NETCLUS answer to a TOPS query.
	QueryResult = core.QueryResult
)

// Build runs the NETCLUS offline phase: the instance ladder over inst.
// Construction parallelizes across BuildOptions.Workers (default all cores)
// and is deterministic: the same instance and options produce an identical
// index — and a byte-identical snapshot — for every worker count.
func Build(inst *Instance, opts BuildOptions) (*Index, error) {
	return core.Build(inst, opts)
}

// Index persistence. Save writes a versioned binary snapshot of the full
// multi-resolution index; Load re-attaches one to the problem instance it
// was built from, verifying a dataset fingerprint so a snapshot can never
// silently serve a different (or differently ordered) dataset. The typical
// lifecycle is: build once, Save, then warm-start every later process with
// Load + NewEngine — dynamic §6 updates keep working on a loaded index.

// Save writes idx as a binary snapshot. For an index currently served by
// an Engine, use Engine.Snapshot instead — it takes the engine's read lock
// so checkpointing cannot race with concurrent updates.
func Save(idx *Index, w io.Writer) (int64, error) { return idx.WriteTo(w) }

// Load reads a snapshot and re-attaches it to inst, which must be the
// dataset the index was built from (enforced via fingerprint).
func Load(r io.Reader, inst *Instance) (*Index, error) { return core.ReadIndex(r, inst) }

// SaveFile writes a snapshot to path atomically (temp file + rename).
func SaveFile(idx *Index, path string) error { return idx.WriteSnapshotFile(path) }

// LoadFile reads a snapshot from path and re-attaches it to inst.
func LoadFile(path string, inst *Instance) (*Index, error) {
	return core.ReadIndexFile(path, inst)
}

// IndexFingerprint returns the dataset fingerprint snapshots of inst carry.
func IndexFingerprint(inst *Instance) uint64 { return core.DatasetFingerprint(inst) }

// Serving layer.
type (
	// Engine serves concurrent queries and updates over one Index.
	Engine = engine.Engine
	// EngineOptions configures an Engine.
	EngineOptions = engine.Options
	// EngineStats snapshots an Engine's traffic and cache counters.
	EngineStats = engine.Stats
	// BatchItem is one QueryBatch outcome.
	BatchItem = engine.BatchItem
)

// NewEngine wraps an Index for concurrent serving. All mutations must go
// through the returned Engine from then on.
func NewEngine(idx *Index, opts EngineOptions) (*Engine, error) {
	return engine.New(idx, opts)
}

// Sharding: one process serves one index. A sharded topology runs each
// shard as its own topsserve process (-shard-index) holding one Engine over
// its site partition, and a stateless router tier (cmd/topsrouter) fetches
// their masked covers over HTTP and runs the distributed greedy on them —
// answers are bit-exact against a single-process engine over the same
// dataset.
// Site updates route to the owning member; trajectory updates broadcast.
type (
	// ShardedOptions configures a member's topology: shard count,
	// partitioner, and the build/engine options.
	ShardedOptions = shard.Options
	// ShardMember is one process-local shard: an Engine plus the member
	// surface a router reads (meta, representatives, owner, masked
	// covers), served under /v1/shard/ by setting ServeOptions.Member.
	ShardMember = shard.Member
	// Router is the scatter-gather front tier over N shard members; it
	// implements http.Handler.
	Router = router.Router
	// RouterOptions configures the shard map and failure policy.
	RouterOptions = router.Options
)

// Partitioner names for ShardedOptions.Partitioner.
const (
	// ShardByHash partitions sites uniformly by node-id hash (default).
	ShardByHash = shard.HashPartitioner
	// ShardByGrid partitions sites spatially over the graph's bounding box.
	ShardByGrid = shard.GridPartitioner
)

// BuildShardMember builds shard index of an opts.Shards-wide topology
// from the full dataset (the ladder derives from the full site set, so
// every member and the router agree on it).
func BuildShardMember(inst *Instance, index int, opts ShardedOptions) (*ShardMember, error) {
	return shard.BuildMember(inst, index, opts)
}

// NewShardMember wraps a checkpoint-loaded Engine as shard index of a
// shards-wide topology. initialSites is the full global site order the
// topology was built from while the state is still that build's (the
// router seeds its dense ids from it); nil once it is not known, and the
// router seeds dense ids per shard.
func NewShardMember(eng *Engine, shards, index int, partitioner string, initialSites []NodeID) (*ShardMember, error) {
	return shard.NewMember(eng, shards, index, partitioner, initialSites)
}

// NewRouter connects to every shard member, validates the topology, and
// returns the serving router.
func NewRouter(opts RouterOptions) (*Router, error) { return router.New(opts) }

// Network serving layer.
type (
	// Server exposes an Engine over an HTTP JSON API: /v1/query,
	// /v1/query/batch, /v1/update, /v1/checkpoint, /healthz and /statsz. It
	// implements http.Handler; mount it on an http.Server. cmd/topsserve is
	// the reference deployment.
	Server = server.Server
	// ServeOptions configures the serving layer: default per-request
	// deadline, decode limits, and the replication/ingest/logging hooks.
	ServeOptions = server.Options
	// ServeLimits bounds what the server's request decoder accepts.
	ServeLimits = server.Limits
	// ServerEngine is the serving surface NewServer accepts: queries,
	// snapshots, counters and one write method, Apply. Engine and
	// ShardMember satisfy it.
	ServerEngine = server.Engine
	// Mutation is one §6 update as a value — what ServerEngine.Apply takes,
	// what the write-ahead log records, and what replay decodes back. The
	// engines' typed methods (AddSite, AddTrajectories, …) build one and
	// call Apply.
	Mutation = wal.Mutation
	// Applied is Apply's result: the record's LSN and any assigned ids.
	Applied = wal.Applied
)

// NewServer wraps an engine — a plain Engine or a ShardMember — in the HTTP
// serving layer. The caller keeps ownership of the engine (e.g. for a
// final snapshot after drain).
func NewServer(eng ServerEngine, opts ServeOptions) (*Server, error) {
	return server.New(eng, opts)
}

// Observability. Both binaries expose GET /metrics (Prometheus text
// format) and accept -log-level/-log-format flags built on these helpers;
// request traces ride the TraceHeader header end to end (client → router →
// shard member → error envelope).
var (
	// NewLogger builds a structured logger writing to w: format is "text"
	// or "json", level from ParseLogLevel.
	NewLogger = obs.NewLogger
	// ParseLogLevel maps debug/info/warn/error (or "") to a slog level.
	ParseLogLevel = obs.ParseLevel
)

// TraceHeader is the end-to-end request-trace header: supplied ids are
// propagated through every tier and echoed on responses and error
// envelopes; absent or malformed ids are replaced at the first edge.
const TraceHeader = obs.TraceHeader

// Durability & replication layer. A write-ahead log turns a served engine
// into a system of record: every acknowledged §6 mutation is an LSN-
// numbered record in an append-only segment log, snapshots carry the LSN
// they reflect, and recovery is checkpoint + tail replay. On top of the
// log, /v1/log streams records to follower read-replicas (topsserve
// -follow) that apply them through the same replay path and serve
// read-only traffic. cmd/topsserve wires the whole lifecycle
// (-wal-dir, -fsync, -checkpoint-every, -follow).
type (
	// WAL is the append-only segmented record log.
	WAL = wal.Log
	// WALOptions configures segment size and fsync policy.
	WALOptions = wal.Options
	// WALRecord is one logged mutation.
	WALRecord = wal.Record
	// WALStats is the log's monitoring block.
	WALStats = wal.Stats
	// SyncPolicy selects when appends reach stable storage.
	SyncPolicy = wal.SyncPolicy
	// ReplicationStatus is a follower's lag report (/healthz, /statsz).
	ReplicationStatus = server.ReplicationStatus
	// Follower tails a primary's /v1/log into a local engine.
	Follower = server.Follower
	// FollowerOptions configures the tailing loop.
	FollowerOptions = server.FollowerOptions
)

// Fsync policies for WALOptions.Policy.
const (
	// FsyncAlways makes every acknowledged update durable (one fsync per
	// record).
	FsyncAlways = wal.SyncAlways
	// FsyncEveryInterval group-commits on a timer: at most one interval of
	// acknowledged updates is lost on a crash.
	FsyncEveryInterval = wal.SyncEveryInterval
	// FsyncNever leaves flushing to the OS.
	FsyncNever = wal.SyncNever
)

// ParseFsyncPolicy validates a CLI fsync-policy name.
var ParseFsyncPolicy = wal.ParsePolicy

// OpenWAL opens (or creates) a log directory, repairing a torn tail.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) { return wal.Open(dir, opts) }

// DurableEngine is the serving surface plus what Engine (and so
// ShardMember) adds to it: the typed §6 methods (value constructors over
// ServerEngine.Apply) and the durability hooks — replaying logged records
// through the same function Apply applies them with, attaching a log for new
// mutations, and reporting the applied LSN.
type DurableEngine interface {
	ServerEngine
	AddSite(v NodeID) error
	DeleteSite(v NodeID) error
	AddTrajectory(tr *Trajectory) (TrajectoryID, error)
	AddTrajectories(trs []*Trajectory) ([]TrajectoryID, error)
	DeleteTrajectory(tid TrajectoryID) error
	// ApplyRecord applies one logged mutation without re-logging it (crash
	// recovery, follower tailing). Records must arrive in LSN order.
	ApplyRecord(rec WALRecord) error
	// AttachWAL connects the engine to its log; every later mutation is
	// logged before it is acknowledged. Replay the tail first.
	AttachWAL(l *WAL) error
	// LSN reports the last applied log sequence number.
	LSN() uint64
	// Epoch reports the fencing token of the primary term this engine last
	// observed (0 before any term has opened).
	Epoch() uint64
	// BeginEpoch opens a strictly newer primary term, logging the fencing
	// token so followers and recovery observe it; a stale epoch fails with
	// a wal.ErrFenced-wrapped error.
	BeginEpoch(epoch uint64) error
}

// ReplayWAL applies every record after eng.LSN() — the recovery tail after
// a checkpoint load, or the whole log over a freshly built engine.
func ReplayWAL(l *WAL, eng DurableEngine) (int, error) { return wal.Replay(l, eng) }

// SaveCheckpointFile writes eng's recovery bundle — mutated dataset state
// plus the LSN-stamped snapshot — to path atomically (temp + fsync +
// rename). Unlike a plain snapshot, a checkpoint reloads without the §6
// mutation history: LoadCheckpointFile needs only the immutable road
// network.
func SaveCheckpointFile(eng ServerEngine, path string) error {
	return wal.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := eng.Checkpoint(w)
		return err
	})
}

// LoadCheckpoint reads a checkpoint stream (Engine.Checkpoint,
// SaveCheckpointFile, /v1/checkpoint) over the given road network and
// returns the recovered single-index engine at the checkpoint's LSN. Replay
// the log tail with ReplayWAL, then AttachWAL. It is how every topsserve
// boot reads its starting state: the recovery checkpoint, -load, a
// follower's bootstrap and -cache.
func LoadCheckpoint(r io.Reader, g *Graph, eopts EngineOptions) (*Engine, error) {
	inst, epoch, br, err := wal.ReadCheckpoint(r, g)
	if err != nil {
		return nil, err
	}
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("netclus: reading checkpoint payload magic: %w", err)
	}
	switch string(magic) {
	case "NCSS":
	case "NCSM":
		return nil, errors.New("netclus: checkpoint payload is an NCSM in-process sharded snapshot, which no longer loads: " +
			"one process serves one index, so run the shards as topsserve -shard-index members behind topsrouter and build them from the dataset")
	default:
		return nil, fmt.Errorf("netclus: checkpoint payload has unknown magic %q", magic)
	}
	idx, err := core.ReadIndex(br, inst)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(idx, eopts)
	if err != nil {
		return nil, err
	}
	eng.RestoreEpoch(epoch)
	return eng, nil
}

// LoadCheckpointFile reads a checkpoint from path (see LoadCheckpoint).
func LoadCheckpointFile(path string, g *Graph, eopts EngineOptions) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netclus: opening checkpoint: %w", err)
	}
	defer f.Close()
	eng, err := LoadCheckpoint(f, g, eopts)
	if err != nil {
		return nil, fmt.Errorf("netclus: checkpoint %s: %w", path, err)
	}
	return eng, nil
}

// NewFollower prepares a tailing loop applying the primary's /v1/log
// stream into eng (optionally persisting it into local). Serve eng with
// ServeOptions.ReadOnly and Replication: f.Status, and run f.Run.
func NewFollower(primary string, eng DurableEngine, local *WAL, opts FollowerOptions) (*Follower, error) {
	return server.NewFollower(primary, eng, local, opts)
}

// LogAvailableFrom probes whether a primary can stream records starting at
// the given LSN — the follower's bootstrap decision between replaying the
// whole log and fetching a checkpoint.
var LogAvailableFrom = server.LogAvailableFrom

// FetchCheckpoint streams a primary's /v1/checkpoint for LoadCheckpoint.
var FetchCheckpoint = server.FetchCheckpoint

// Datasets and generation.
type (
	// Dataset is a fully assembled TOPS instance plus provenance.
	Dataset = dataset.Dataset
	// DatasetPreset names a Table-6-style dataset preset.
	DatasetPreset = dataset.Preset
	// DatasetConfig scales and seeds dataset synthesis.
	DatasetConfig = dataset.Config
	// City is a synthetic road network with its commuting hotspots.
	City = gen.City
	// CityConfig configures synthetic road-network generation.
	CityConfig = gen.CityConfig
	// Topology selects a synthetic city's road-network shape.
	Topology = gen.Topology
	// TrajConfig configures synthetic trajectory generation.
	TrajConfig = gen.TrajConfig
	// SiteConfig configures candidate-site sampling.
	SiteConfig = gen.SiteConfig
)

// City topologies.
const (
	GridMesh    = gen.GridMesh
	Star        = gen.Star
	Polycentric = gen.Polycentric
	RingMesh    = gen.RingMesh
)

// Synthetic data generators, so external users can assemble instances
// without dataset presets.
var (
	// GenerateCity synthesizes a road network.
	GenerateCity = gen.GenerateCity
	// GenerateTrajectories synthesizes commuter trajectories over a city.
	GenerateTrajectories = gen.GenerateTrajectories
	// SampleSites samples candidate sites from a graph (empty config means
	// every node, the paper's default).
	SampleSites = gen.SampleSites
)

// Live ingestion and map-matching: the paper's Fig. 2 front end. Raw GPS
// traces (trajectory.GPSTrace, or NDJSON over POST /v1/ingest) are HMM
// map-matched onto the road network and applied as §6 mutations.
type (
	// GPSTrace is a raw GPS trace (timestamped planar points).
	GPSTrace = trajectory.GPSTrace
	// GPSPoint is one raw GPS sample.
	GPSPoint = trajectory.GPSPoint
	// GPSConfig configures synthetic GPS emission (sampling + noise).
	GPSConfig = gen.GPSConfig
	// Matcher map-matches GPS traces onto a fixed road network (Lou et
	// al.'s low-sampling-rate HMM matcher). Not safe for concurrent use —
	// pool one per worker.
	Matcher = mapmatch.Matcher
	// MatchConfig tunes the HMM matcher.
	MatchConfig = mapmatch.Config
	// IngestOptions configures the streaming ingestion pipeline behind
	// POST /v1/ingest (set ServeOptions.Ingest to enable the endpoint).
	IngestOptions = ingest.Options
	// IngestVerdict is the per-line outcome streamed back by /v1/ingest.
	IngestVerdict = ingest.Verdict
	// IngestStats is the /statsz ingest counter block.
	IngestStats = ingest.Stats
	// Ingestor runs the decode → match → apply pipeline over any Sink.
	Ingestor = ingest.Ingestor
	// IngestSink receives matched trajectory batches (usually the
	// engine's AddTrajectories write path).
	IngestSink = ingest.Sink
)

var (
	// EmitGPS degrades a trajectory into a noisy GPS trace.
	EmitGPS = gen.EmitGPS
	// NewMatcher builds an HMM matcher over a graph.
	NewMatcher = mapmatch.NewMatcher
	// NewIngestor builds a standalone ingestion pipeline over a graph
	// (the server builds its own when ServeOptions.Ingest is set).
	NewIngestor = ingest.New
)

// Dataset presets mirroring Table 6 of the paper.
const (
	PresetBeijingSmall = dataset.BeijingSmall
	PresetBeijing      = dataset.Beijing
	PresetBangalore    = dataset.Bangalore
	PresetNewYork      = dataset.NewYork
	PresetAtlanta      = dataset.Atlanta
)

// LoadDataset synthesizes (or retrieves) a named dataset preset.
func LoadDataset(name DatasetPreset, cfg DatasetConfig) (*Dataset, error) {
	return dataset.Load(name, cfg)
}

// DatasetPresets lists all known presets.
func DatasetPresets() []DatasetPreset { return dataset.Presets() }
