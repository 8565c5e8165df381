package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// Sharded snapshots: one manifest describing the partition plus one
// core-format snapshot per shard. Two carriers share the format:
//
//   - SaveDir/LoadDir — a directory with manifest.json and shard-NNN.ncss
//     files, the operational layout (topsserve's sharded cache);
//   - Snapshot/LoadSharded — the same content as a single stream (magic
//     "NCSM", manifest length + JSON, then length-prefixed shard
//     snapshots), which is what keeps the engine-compatible Snapshot
//     surface — and /v1/snapshot — working on a sharded server.
//
// A manifest pins the shard count, the partitioner name, and every shard's
// site list in its exact (history-dependent) order; the full dataset
// fingerprint in the manifest plus the per-shard fingerprints inside each
// core snapshot reject any mismatched or reordered input.

// manifestVersion is the sharded-snapshot format version. Version 2 added
// the WAL LSN; version-1 manifests still load (as LSN 0).
const manifestVersion = 2

// manifestMinVersion is the oldest manifest version this reader accepts.
const manifestMinVersion = 1

// containerMagic is "NCSM" (NetClus Sharded Manifest) read little-endian.
const containerMagic uint32 = 0x4d53434e

// ManifestName is the manifest file name inside a SaveDir directory.
const ManifestName = "manifest.json"

// Manifest describes a sharded snapshot.
type Manifest struct {
	Version            int    `json:"version"`
	Shards             int    `json:"shards"`
	Partitioner        string `json:"partitioner"`
	DatasetFingerprint uint64 `json:"dataset_fingerprint"`
	// LSN is the write-ahead-log watermark of the snapshot: every logged
	// mutation up to and including it is reflected, so recovery replays
	// records after it. 0 for engines that are not WAL-served (and for
	// version-1 manifests).
	LSN uint64 `json:"lsn,omitempty"`
	// Sites lists every shard's site nodes in the shard's OWN list order.
	// Re-partitioning the presented dataset cannot reconstruct these: each
	// shard's core index swap-removes within its local list on DeleteSite,
	// independently of the global mirror's swap-removes, so after deletions
	// the per-shard orders are history the manifest must carry — the
	// per-shard dataset fingerprints (inside each core snapshot) are
	// computed over exactly these orders.
	Sites      [][]int64 `json:"sites"`
	SiteCounts []int     `json:"site_counts"`
	Files      []string  `json:"files,omitempty"`
}

// manifest assembles the current manifest. Callers hold at least the read
// lock.
func (s *Sharded) manifest(withFiles bool) Manifest {
	m := Manifest{
		Version:            manifestVersion,
		Shards:             len(s.shards),
		Partitioner:        s.part.Name(),
		DatasetFingerprint: s.fingerprint(),
		LSN:                s.LSN(),
		Sites:              make([][]int64, len(s.shards)),
		SiteCounts:         make([]int, len(s.shards)),
	}
	for j, sh := range s.shards {
		m.SiteCounts[j] = sh.inst.N()
		m.Sites[j] = make([]int64, 0, sh.inst.N())
		for _, v := range sh.inst.Sites {
			m.Sites[j] = append(m.Sites[j], int64(v))
		}
		if withFiles {
			m.Files = append(m.Files, fmt.Sprintf("shard-%03d.ncss", j))
		}
	}
	return m
}

// fingerprint hashes the current logical full dataset: the shared graph,
// the (update-extended) trajectory store, and the global site list in
// mirror order — the same quantity core.DatasetFingerprint computes over
// the instance a load will present.
func (s *Sharded) fingerprint() uint64 {
	sites, trajs := backend{s}.Dataset()
	return core.DatasetFingerprint(&tops.Instance{G: s.g, Trajs: trajs, Sites: sites})
}

// Dataset returns the global site list in mirror order and the trajectory
// store, of which every shard holds an identical clone.
func (b backend) Dataset() ([]roadnet.NodeID, *trajectory.Store) {
	return b.s.sites.Sites(), b.s.shards[0].inst.Trajs
}

// WriteSnapshot streams the container format: the whole sharded engine as
// one stream, which is what keeps /v1/snapshot and checkpoints working on a
// sharded server. Reload with LoadSharded.
func (b backend) WriteSnapshot(w io.Writer) (int64, error) {
	s := b.s
	var n int64
	man, err := json.Marshal(s.manifest(false))
	if err != nil {
		return 0, fmt.Errorf("shard: encoding manifest: %w", err)
	}
	var head [12]byte
	binary.LittleEndian.PutUint32(head[0:], containerMagic)
	binary.LittleEndian.PutUint32(head[4:], manifestVersion)
	binary.LittleEndian.PutUint32(head[8:], uint32(len(man)))
	wrote, err := w.Write(head[:])
	n += int64(wrote)
	if err != nil {
		return n, err
	}
	wrote, err = w.Write(man)
	n += int64(wrote)
	if err != nil {
		return n, err
	}
	// Buffer one shard at a time: the stream needs a length prefix per
	// shard, and the core codec writes forward-only.
	var buf bytes.Buffer
	for j, sh := range s.shards {
		buf.Reset()
		if _, err := sh.eng.Snapshot(&buf); err != nil {
			return n, fmt.Errorf("shard: snapshotting shard %d: %w", j, err)
		}
		var l [8]byte
		binary.LittleEndian.PutUint64(l[:], uint64(buf.Len()))
		wrote, err = w.Write(l[:])
		n += int64(wrote)
		if err != nil {
			return n, err
		}
		wrote64, err := io.Copy(w, &buf)
		n += wrote64
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// LoadSharded reads a Snapshot stream and re-attaches it to inst, which
// must be the full dataset the sharded engine was built from. opts supplies
// the serving configuration (engine options); shard count and partitioner
// come from the manifest.
func LoadSharded(r io.Reader, inst *tops.Instance, opts Options) (*Sharded, error) {
	var head [12]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("shard: reading container header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[0:]); magic != containerMagic {
		return nil, fmt.Errorf("shard: bad container magic %#x (want %#x)", magic, containerMagic)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v > manifestVersion {
		return nil, fmt.Errorf("shard: container format v%d, this reader supports <=v%d (upgrade the binary)", v, manifestVersion)
	} else if v < manifestMinVersion {
		return nil, fmt.Errorf("shard: container format v%d, this reader supports v%d..v%d", v, manifestMinVersion, manifestVersion)
	}
	manLen := binary.LittleEndian.Uint32(head[8:])
	const maxManifest = 1 << 20
	if manLen == 0 || manLen > maxManifest {
		return nil, fmt.Errorf("shard: implausible manifest length %d", manLen)
	}
	raw := make([]byte, manLen)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	part, insts, err := validateManifest(&man, inst)
	if err != nil {
		return nil, err
	}
	idxs := make([]*core.Index, man.Shards)
	for j := 0; j < man.Shards; j++ {
		var l [8]byte
		if _, err := io.ReadFull(r, l[:]); err != nil {
			return nil, fmt.Errorf("shard: reading shard %d length: %w", j, err)
		}
		idxs[j], err = core.ReadIndex(io.LimitReader(r, int64(binary.LittleEndian.Uint64(l[:]))), insts[j])
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", j, err)
		}
	}
	opts.Shards = man.Shards
	opts.Partitioner = man.Partitioner
	return assemble(inst, part, insts, idxs, opts, man.LSN)
}

// validateManifest checks a manifest against the presented dataset and
// materializes the per-shard instances it describes: the shared graph, a
// trajectory-store clone per shard, and the manifest's per-shard site
// lists (in their recorded, history-dependent order — see Manifest.Sites).
// Every site must route to its recorded shard under the manifest's
// partitioner and the total count must match the presented dataset; the
// per-shard dataset fingerprints inside the core snapshots then verify the
// lists in depth.
func validateManifest(man *Manifest, inst *tops.Instance) (Partitioner, []*tops.Instance, error) {
	if man.Version > manifestVersion {
		return nil, nil, fmt.Errorf("shard: manifest format v%d, this reader supports <=v%d (upgrade the binary)", man.Version, manifestVersion)
	}
	if man.Version < manifestMinVersion {
		return nil, nil, fmt.Errorf("shard: manifest format v%d, this reader supports v%d..v%d", man.Version, manifestMinVersion, manifestVersion)
	}
	if man.Shards < 1 {
		return nil, nil, fmt.Errorf("shard: manifest shard count %d must be >= 1", man.Shards)
	}
	if want := core.DatasetFingerprint(inst); man.DatasetFingerprint != want {
		return nil, nil, fmt.Errorf("shard: manifest fingerprint %#x does not match dataset %#x: snapshot was taken from a different dataset", man.DatasetFingerprint, want)
	}
	part, err := NewPartitioner(man.Partitioner, man.Shards, inst.G)
	if err != nil {
		return nil, nil, err
	}
	if len(man.Sites) != man.Shards || len(man.SiteCounts) != man.Shards {
		return nil, nil, fmt.Errorf("shard: manifest lists %d site lists / %d site counts for %d shards", len(man.Sites), len(man.SiteCounts), man.Shards)
	}
	insts := make([]*tops.Instance, man.Shards)
	total := 0
	for j := range insts {
		if len(man.Sites[j]) != man.SiteCounts[j] {
			return nil, nil, fmt.Errorf("shard: manifest shard %d lists %d sites but counts %d", j, len(man.Sites[j]), man.SiteCounts[j])
		}
		sites := make([]roadnet.NodeID, 0, len(man.Sites[j]))
		for _, raw := range man.Sites[j] {
			v := roadnet.NodeID(raw)
			if int64(v) != raw || v < 0 || int(v) >= inst.G.NumNodes() {
				return nil, nil, fmt.Errorf("shard: manifest shard %d site %d outside graph", j, raw)
			}
			if got := part.Shard(v); got != j {
				return nil, nil, fmt.Errorf("shard: manifest places site %d on shard %d but the %s partitioner routes it to %d", v, j, part.Name(), got)
			}
			sites = append(sites, v)
		}
		insts[j] = &tops.Instance{G: inst.G, Trajs: inst.Trajs.Clone(), Sites: sites}
		total += len(sites)
	}
	if total != len(inst.Sites) {
		return nil, nil, fmt.Errorf("shard: manifest lists %d sites in total, dataset has %d", total, len(inst.Sites))
	}
	return part, insts, nil
}

// SaveDir writes the sharded engine as a manifest plus one snapshot file
// per shard under dir (created if missing). Each file lands atomically
// (temp + fsync + rename), and the manifest is written last, so a reader
// that finds a manifest finds complete shard files.
func (s *Sharded) SaveDir(dir string) (err error) {
	s.View(func() { err = s.saveDir(dir) })
	return err
}

func (s *Sharded) saveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: snapshot dir: %w", err)
	}
	man := s.manifest(true)
	for j, sh := range s.shards {
		if err := wal.AtomicWriteFile(filepath.Join(dir, man.Files[j]), func(w io.Writer) error {
			_, err := sh.eng.Snapshot(w)
			return err
		}); err != nil {
			return fmt.Errorf("shard: writing shard %d snapshot: %w", j, err)
		}
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	if err := wal.AtomicWriteFile(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	return nil
}

// LoadDir reads a SaveDir layout from dir and re-attaches it to inst (the
// full dataset). opts supplies engine options; shard count and partitioner
// come from the manifest.
func LoadDir(dir string, inst *tops.Instance, opts Options) (*Sharded, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	if len(man.Files) != man.Shards {
		return nil, fmt.Errorf("shard: manifest lists %d files for %d shards", len(man.Files), man.Shards)
	}
	part, insts, err := validateManifest(&man, inst)
	if err != nil {
		return nil, err
	}
	idxs := make([]*core.Index, man.Shards)
	for j := 0; j < man.Shards; j++ {
		name := filepath.Base(man.Files[j]) // refuse path traversal out of dir
		idxs[j], err = core.ReadIndexFile(filepath.Join(dir, name), insts[j])
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", j, err)
		}
	}
	opts.Shards = man.Shards
	opts.Partitioner = man.Partitioner
	return assemble(inst, part, insts, idxs, opts, man.LSN)
}
