package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// Checkpoints. A core snapshot re-attaches only to the exact dataset it was
// taken from — after §6 mutations that dataset is no longer the preset: the
// site list has been appended to and swap-removed from, and the trajectory
// store has grown. Recovering from a snapshot alone would therefore need
// the full mutation history, which is exactly what compaction deletes. The
// checkpoint container closes that gap: it bundles the mutated dataset
// state (site list in dense-id order, the full trajectory store) with the
// index snapshot taken under the same engine read lock, so recovery is
//
//	graph (immutable, from the preset) + checkpoint -> engine at LSN w
//	+ WAL records with LSN > w                      -> current state
//
// Layout, little-endian:
//
//	u32 magic "NCCK" | u32 version
//	u64 epoch (v2+; the replication fencing token at checkpoint time)
//	u32 nSites | nSites * u32 node
//	u64 storeLen | store (trajectory.Store.WriteTo)
//	u32 crc32 over everything above
//	inner snapshot (core "NCSS" stream)
//
// The inner snapshot carries its own integrity and fingerprint checks; the
// CRC here covers the dataset section so checkpoint corruption reports as
// corruption, not as a confusing fingerprint mismatch.

const (
	ckptMagic   uint32 = 0x4b43434e // "NCCK" little-endian
	ckptVersion uint32 = 2          // v2 added the epoch field; v1 reads as epoch 0
	// maxCkptSites bounds the decoded site list.
	maxCkptSites = 1 << 28
)

// WriteCheckpoint writes the dataset section for (sites, store) and then
// streams the inner snapshot via writeInner. epoch is the replication
// fencing token at checkpoint time (0 when the engine never saw one). The
// caller holds whatever lock makes the views consistent
// (Engine.Checkpoint holds the engine read lock).
func WriteCheckpoint(w io.Writer, sites []roadnet.NodeID, store *trajectory.Store, epoch uint64, writeInner func(io.Writer) (int64, error)) (int64, error) {
	var store64 bytes.Buffer
	if _, err := store.WriteTo(&store64); err != nil {
		return 0, fmt.Errorf("wal: serializing trajectory store: %w", err)
	}
	head := make([]byte, 0, 20+4*len(sites)+8)
	var u4 [4]byte
	var u8 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u4[:], v)
		head = append(head, u4[:]...)
	}
	put32(ckptMagic)
	put32(ckptVersion)
	binary.LittleEndian.PutUint64(u8[:], epoch)
	head = append(head, u8[:]...)
	put32(uint32(len(sites)))
	for _, s := range sites {
		put32(uint32(s))
	}
	binary.LittleEndian.PutUint64(u8[:], uint64(store64.Len()))
	head = append(head, u8[:]...)

	sum := crc32.NewIEEE()
	sum.Write(head)
	sum.Write(store64.Bytes())
	var n int64
	for _, chunk := range [][]byte{head, store64.Bytes()} {
		wrote, err := w.Write(chunk)
		n += int64(wrote)
		if err != nil {
			return n, err
		}
	}
	binary.LittleEndian.PutUint32(u4[:], sum.Sum32())
	wrote, err := w.Write(u4[:])
	n += int64(wrote)
	if err != nil {
		return n, err
	}
	inner, err := writeInner(w)
	n += inner
	return n, err
}

// ReadCheckpoint decodes the dataset section and reconstructs the problem
// instance the inner snapshot re-attaches to, over the given (immutable)
// road network. It returns the instance, the checkpoint's replication
// epoch (0 for v1 containers, which predate epochs), and a buffered reader
// positioned at the inner snapshot — peek its magic before handing it to
// core.ReadIndex, so a payload of another format is rejected by name.
func ReadCheckpoint(r io.Reader, g *roadnet.Graph) (*tops.Instance, uint64, *bufio.Reader, error) {
	if g == nil {
		return nil, 0, nil, fmt.Errorf("wal: checkpoint needs the road network")
	}
	sum := crc32.NewIEEE()
	var u4 [4]byte
	var u8 [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, u4[:]); err != nil {
			return 0, err
		}
		sum.Write(u4[:])
		return binary.LittleEndian.Uint32(u4[:]), nil
	}
	magic, err := get32()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal: reading checkpoint magic: %w", err)
	}
	if magic != ckptMagic {
		return nil, 0, nil, fmt.Errorf("wal: bad checkpoint magic %#x (want %#x)", magic, ckptMagic)
	}
	version, err := get32()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal: reading checkpoint version: %w", err)
	}
	if version > ckptVersion {
		return nil, 0, nil, fmt.Errorf("wal: checkpoint format v%d, this reader supports <=v%d", version, ckptVersion)
	}
	if version < 1 {
		return nil, 0, nil, fmt.Errorf("wal: invalid checkpoint version %d", version)
	}
	var epoch uint64
	if version >= 2 {
		if _, err := io.ReadFull(r, u8[:]); err != nil {
			return nil, 0, nil, fmt.Errorf("wal: reading checkpoint epoch: %w", err)
		}
		sum.Write(u8[:])
		epoch = binary.LittleEndian.Uint64(u8[:])
	}
	nSites, err := get32()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal: reading checkpoint site count: %w", err)
	}
	if nSites > maxCkptSites || int(nSites) > g.NumNodes() {
		return nil, 0, nil, fmt.Errorf("wal: checkpoint lists %d sites over a %d-node graph", nSites, g.NumNodes())
	}
	sites := make([]roadnet.NodeID, nSites)
	seen := make(map[roadnet.NodeID]bool, nSites)
	for i := range sites {
		v, err := get32()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("wal: reading checkpoint site %d: %w", i, err)
		}
		nv := roadnet.NodeID(int32(v))
		if nv < 0 || int(nv) >= g.NumNodes() {
			return nil, 0, nil, fmt.Errorf("wal: checkpoint site %d outside graph", v)
		}
		if seen[nv] {
			return nil, 0, nil, fmt.Errorf("wal: checkpoint lists site %d twice", nv)
		}
		seen[nv] = true
		sites[i] = nv
	}
	if _, err := io.ReadFull(r, u8[:]); err != nil {
		return nil, 0, nil, fmt.Errorf("wal: reading checkpoint store length: %w", err)
	}
	sum.Write(u8[:])
	storeLen := binary.LittleEndian.Uint64(u8[:])
	const maxStore = 1 << 32
	if storeLen == 0 || storeLen > maxStore {
		return nil, 0, nil, fmt.Errorf("wal: implausible checkpoint store length %d", storeLen)
	}
	// Read rather than preallocate: the length is not yet checksummed, and
	// a few corrupt bytes must not ask for 4 GiB.
	raw, err := io.ReadAll(io.LimitReader(r, int64(storeLen)))
	if err == nil && uint64(len(raw)) != storeLen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal: reading checkpoint store: %w", err)
	}
	sum.Write(raw)
	if _, err := io.ReadFull(r, u4[:]); err != nil {
		return nil, 0, nil, fmt.Errorf("wal: reading checkpoint checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(u4[:]); got != sum.Sum32() {
		return nil, 0, nil, fmt.Errorf("wal: checkpoint checksum mismatch (%#x on disk, %#x computed): file is corrupt", got, sum.Sum32())
	}
	store, err := trajectory.ReadStore(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal: decoding checkpoint store: %w", err)
	}
	for i := 0; i < store.Len(); i++ {
		for _, v := range store.Get(trajectory.ID(i)).Nodes {
			if v < 0 || int(v) >= g.NumNodes() {
				return nil, 0, nil, fmt.Errorf("wal: checkpoint trajectory %d references node %d outside graph", i, v)
			}
		}
	}
	// Assemble the instance directly: tops.NewInstance insists on non-empty
	// site and trajectory sets, but a checkpoint legitimately captures a
	// dataset whose updates deleted every site.
	return &tops.Instance{G: g, Trajs: store, Sites: sites}, epoch, bufio.NewReader(r), nil
}

// AtomicWriteFile streams fill into a temp sibling of path, fsyncs, opens
// permissions, and renames into place — a crash mid-write never leaves a
// torn checkpoint at the published path.
func AtomicWriteFile(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	if err := fill(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Make the rename durable before the caller acts on it (compaction
	// deletes history the checkpoint covers; metadata ordering across the
	// two is otherwise unspecified). Best-effort: some filesystems reject
	// directory fsync.
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory's metadata, best-effort.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
