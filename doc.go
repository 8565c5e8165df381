// Package netclus is a Go reproduction of "NetClus: A Scalable Framework
// for Locating Top-K Sites for Placement of Trajectory-Aware Services"
// (Mitra, Saraf, Sharma, Bhattacharya, Ranu — ICDE 2017), grown into a
// concurrent query-serving core.
//
// The library answers TOPS queries — given a road network, a set of user
// trajectories and candidate sites, report the k sites maximizing total
// trajectory utility under a distance-decaying preference function — using
// the paper's NETCLUS multi-resolution clustering index, with the exact
// branch-and-bound optimum, the INC-GREEDY baseline and its FM-sketch
// acceleration, the cost/capacity/existing-services variants, and dynamic
// updates.
//
// This package is the public facade (see netclus.go): external users build
// an Index over an Instance, wrap it in an Engine, and serve concurrent
// Query/QueryBatch traffic interleaved with updates — covering structures
// are memoized per (ladder instance, preference) and filled in parallel, so
// repeated and interactive (k, τ)-varying workloads skip the per-query
// RepCover cost the paper's online phase pays.
//
// Index construction parallelizes across BuildOptions.Workers and is
// deterministic for any worker count. Save/Load persist the index as a
// versioned binary snapshot carrying a dataset fingerprint, so a snapshot
// can never silently serve a mismatched dataset. A served engine persists
// as a checkpoint (SaveCheckpointFile / LoadCheckpoint): the dataset as
// the updates left it plus the LSN-stamped snapshot of its one index. It
// is the one artifact cmd/topsserve reads and writes — its
// cache entries, -load and -snapshot-on-exit files, recovery checkpoints
// and follower bootstraps — so services warm-start in milliseconds instead
// of re-clustering.
//
// Updates have one write path. A §6 update is a Mutation value; an engine's
// Apply applies it through a single transition function and, WAL-served,
// logs its encoding; replay decodes the record back to the value and runs
// the same function, so recovery cannot disagree with what was served. The
// typed methods (AddSite, AddTrajectories, …) build the value and call
// Apply.
//
// A write-ahead log (OpenWAL, Engine.AttachWAL) turns a served engine into
// a system of record: every acknowledged mutation is an LSN-numbered
// record, snapshots carry the LSN they reflect, recovery is checkpoint +
// tail replay (ReplayWAL), and followers (NewFollower) tail a primary's
// /v1/log into read-replicas that answer bit-identically. Followers
// long-poll the log (FollowerOptions.Wait) so replica lag is ~RTT rather
// than a polling interval; ServeOptions.Quorum holds each update ack until
// N followers are durably past its LSN; and promotion (ServeOptions.
// Promote, DurableEngine.BeginEpoch) opens a new epoch — a logged fencing
// token that makes a deposed primary reject writes (409 fenced). API.md
// documents the complete HTTP surface, including the stable error codes.
//
// One process serves one index. A sharded deployment runs each shard as its
// own process (a ShardMember, topsserve -shard-index) behind the stateless
// router (NewRouter, cmd/topsrouter), which fetches the members' masked
// covers over HTTP and runs the distributed greedy on them bit-exactly
// against a single engine.
//
// Layout:
//
//	internal/roadnet     directed road networks, Dijkstra/A*, SCC
//	internal/trajectory  trajectories and GPS traces
//	internal/spatial     grid spatial index
//	internal/mapmatch    HMM map matcher (raw trace -> node sequence)
//	internal/fm          Flajolet–Martin sketches
//	internal/gen         synthetic cities, trajectories, GPS noise
//	internal/dataset     Table-6-style dataset presets
//	internal/tops        the TOPS problem and all non-indexed algorithms
//	internal/core        the NETCLUS index (paper's contribution) plus
//	                     cached covering structures (CoverPlan / CoverFor)
//	internal/engine      the concurrent serving layer: Engine, one concrete
//	                     type (RWMutex protocol, QueryBatch grouping,
//	                     context deadlines, traffic stats, the one write
//	                     path: Apply / ApplyRecord, snapshots and
//	                     checkpoints)
//	internal/shard       scatter-gather sharding: the site partition (Of,
//	                     by node-id hash), the member a shard process
//	                     serves, and the one routing core, Sharded, over
//	                     a four-call member interface (Conn) — cluster
//	                     ownership, masked cover fetch, the answer
//	                     (Answer: the one greedy, tops.IncGreedyParts,
//	                     over one part per cover), update routing —
//	                     bit-exact vs the single engine
//	internal/router      that core over HTTP member conns: the stateless
//	                     front tier of shard-per-process topologies
//	                     (handlers, shard map, failover and retry)
//	internal/wal         durability: the Mutation value and its codec, and
//	                     the segmented CRC-framed write-ahead log
//	                     (LSN-stamped snapshots, checkpoint + tail-replay
//	                     recovery, compaction, follower record streams)
//	internal/server      the HTTP JSON serving layer (strict decoding,
//	                     deadlines, drain, /statsz, /v1/log streaming,
//	                     follower tailing)
//	internal/bench       one experiment per paper table/figure
//	cmd/...              topsserve, topsbench, topsgen, topsquery, benchjson
//	examples/...         runnable scenario walkthroughs
//
// See README.md for a tour and EXPERIMENTS.md for the paper-vs-measured
// record of every table and figure.
package netclus
