package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// Index snapshots. The offline phase (clustering every instance of the
// ladder) dominates total cost, so a deployment builds the index once,
// snapshots it, and warm-starts every later process from the snapshot.
//
// The format is versioned and little-endian throughout, every list is
// length-prefixed, the stream ends in a CRC32 trailer over all preceding
// bytes, and the header carries a fingerprint of the dataset the index was
// built from (graph topology and weights, candidate sites, trajectories). ReadIndex recomputes the fingerprint over the instance it
// re-attaches to and rejects mismatches, so a snapshot can never silently
// serve queries against a different — or differently ordered — dataset.
// The snapshot contains the ladder and all cluster metadata but not the
// road network or trajectory store: those are serialized by their own
// packages (roadnet, trajectory) and are typically regenerated
// deterministically from a dataset preset.
//
// Because index construction is deterministic for any Options.Workers (see
// Build), two builds of the same dataset produce byte-identical snapshots;
// tests assert this, making the snapshot double as a build-reproducibility
// checksum.

const (
	// snapshotMagic is "NCSS" (NetClus SnapShot) read little-endian.
	snapshotMagic uint32 = 0x5353434e
	// snapshotVersion is the current format version. Version 1 was the
	// unversioned "NCI1" codec of PR 1, which carried no fingerprint; it is
	// no longer readable and loads fail with a bad-magic error. Version 3
	// added the WAL LSN to the header; version-2 snapshots still load (as
	// LSN 0, i.e. "replay the whole log").
	snapshotVersion uint32 = 3
	// snapshotMinVersion is the oldest version this reader accepts.
	snapshotMinVersion uint32 = 2
)

// DatasetFingerprint hashes the parts of a problem instance an index build
// depends on: node coordinates, the adjacency lists with weights (in
// insertion order), the candidate-site list (in order, because dense site
// ids follow it), and every trajectory's node sequence and length. Two
// instances with equal fingerprints answer snapshot-served queries
// identically; any structural difference — including a mere reordering of
// sites — changes the fingerprint.
func DatasetFingerprint(inst *tops.Instance) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF64 := func(v float64) { putU64(math.Float64bits(v)) }

	g := inst.G
	putU64(uint64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		p := g.Point(roadnet.NodeID(v))
		putF64(p.X)
		putF64(p.Y)
		g.Neighbors(roadnet.NodeID(v), func(to roadnet.NodeID, w float64) bool {
			putU64(uint64(uint32(to)))
			putF64(w)
			return true
		})
		putU64(^uint64(0)) // adjacency-list terminator
	}
	putU64(uint64(len(inst.Sites)))
	for _, s := range inst.Sites {
		putU64(uint64(uint32(s)))
	}
	putU64(uint64(inst.Trajs.Len()))
	inst.Trajs.ForEach(func(_ trajectory.ID, tr *trajectory.Trajectory) {
		putU64(uint64(len(tr.Nodes)))
		for _, v := range tr.Nodes {
			putU64(uint64(uint32(v)))
		}
		putF64(tr.Length())
	})
	return h.Sum64()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the index as a versioned snapshot: header and payload,
// then a CRC32 (IEEE) trailer over every preceding byte, so in-range bit
// corruption — which the decoder's structural checks alone cannot see —
// fails the load instead of silently changing query answers. The snapshot
// is stamped with WalLSN(); a serving layer that has applied logged
// mutations since writes through WriteSnapshot.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	return idx.WriteSnapshot(w, idx.walLSN)
}

// WriteSnapshot is WriteTo stamped with lsn: the write-ahead-log sequence
// number of the last mutation the written state reflects, which is where
// log replay resumes after a load.
func (idx *Index) WriteSnapshot(w io.Writer, lsn uint64) (int64, error) {
	cw := &countingWriter{w: w}
	sum := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(cw, sum))
	put := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }

	header := []any{
		snapshotMagic,
		snapshotVersion,
		DatasetFingerprint(idx.inst),
		lsn,
		idx.opts.Gamma,
		idx.opts.TauMin,
		idx.opts.TauMax,
		uint32(idx.inst.G.NumNodes()),
		uint32(idx.trajs.Len()),
	}
	for _, v := range header {
		if err := put(v); err != nil {
			return cw.n, err
		}
	}
	// Site membership and liveness masks, written as whole byte slices
	// (one buffered write each instead of one encoder call per node).
	putMask := func(bits []bool) error {
		mask := make([]byte, len(bits))
		for i, b := range bits {
			if b {
				mask[i] = 1
			}
		}
		_, err := bw.Write(mask)
		return err
	}
	if err := putMask(idx.isSite); err != nil {
		return cw.n, err
	}
	if err := putMask(idx.alive); err != nil {
		return cw.n, err
	}
	if err := put(uint32(len(idx.Instances))); err != nil {
		return cw.n, err
	}
	for _, ins := range idx.Instances {
		if err := put(ins.Radius); err != nil {
			return cw.n, err
		}
		if err := put(uint32(len(ins.Clusters))); err != nil {
			return cw.n, err
		}
		for ci := range ins.Clusters {
			cl := &ins.Clusters[ci]
			if err := put(int32(cl.Center)); err != nil {
				return cw.n, err
			}
			if err := put(int32(cl.Rep)); err != nil {
				return cw.n, err
			}
			// +Inf (no representative) round-trips exactly: binary.Write
			// emits the IEEE bit pattern like every other Dr field here.
			if err := put(cl.RepDr); err != nil {
				return cw.n, err
			}
			if err := put(uint32(len(cl.Members))); err != nil {
				return cw.n, err
			}
			for i, v := range cl.Members {
				if err := put(int32(v)); err != nil {
					return cw.n, err
				}
				if err := put(cl.MemberDr[i]); err != nil {
					return cw.n, err
				}
			}
			if err := put(uint32(len(cl.TL))); err != nil {
				return cw.n, err
			}
			for _, te := range cl.TL {
				if err := put(int32(te.Traj)); err != nil {
					return cw.n, err
				}
				if err := put(te.Dr); err != nil {
					return cw.n, err
				}
			}
			if err := put(uint32(len(cl.CL))); err != nil {
				return cw.n, err
			}
			for _, nb := range cl.CL {
				if err := put(int32(nb.Cluster)); err != nil {
					return cw.n, err
				}
				if err := put(nb.Dr); err != nil {
					return cw.n, err
				}
			}
		}
		// CC lists.
		if err := put(uint32(len(ins.CC))); err != nil {
			return cw.n, err
		}
		for _, cc := range ins.CC {
			if err := put(uint32(len(cc))); err != nil {
				return cw.n, err
			}
			for _, c := range cc {
				if err := put(int32(c)); err != nil {
					return cw.n, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// Trailer: written straight to the sink so it is not part of its own
	// checksum.
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum.Sum32())
	if _, err := cw.Write(trailer[:]); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// hashingReader feeds every byte handed to the consumer through a CRC, so
// the checksum covers exactly the bytes the decoder consumed — buffering
// below it never hashes read-ahead the decoder hasn't seen.
type hashingReader struct {
	r   *bufio.Reader
	sum hash.Hash32
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	if n > 0 {
		hr.sum.Write(p[:n])
	}
	return n, err
}

// ReadIndex deserializes a snapshot and re-attaches it to the given problem
// instance. The instance must be the dataset the index was built from: the
// header fingerprint is recomputed over inst and a mismatch — different
// graph, different sites, different trajectories, or merely a different
// ordering — is rejected before any structure is decoded. Every list length
// and id is range-checked, so corrupted or truncated input produces an
// error, never a panic or an index that fails later; each decoded instance
// is additionally validated structurally before the index is returned.
func ReadIndex(r io.Reader, inst *tops.Instance) (*Index, error) {
	hr := &hashingReader{r: bufio.NewReader(r), sum: crc32.NewIEEE()}
	get := func(v any) error { return binary.Read(hr, binary.LittleEndian, v) }

	var magic, version uint32
	if err := get(&magic); err != nil {
		return nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %#x (want %#x)", magic, snapshotMagic)
	}
	if err := get(&version); err != nil {
		return nil, fmt.Errorf("core: reading snapshot version: %w", err)
	}
	// Version mismatches name both sides so an operator can tell a stale
	// binary from a stale snapshot at a glance.
	if version > snapshotVersion {
		return nil, fmt.Errorf("core: snapshot format v%d, this reader supports <=v%d (upgrade the binary)", version, snapshotVersion)
	}
	if version < snapshotMinVersion {
		return nil, fmt.Errorf("core: snapshot format v%d, this reader supports v%d..v%d (rebuild the snapshot)", version, snapshotMinVersion, snapshotVersion)
	}
	var fp uint64
	if err := get(&fp); err != nil {
		return nil, fmt.Errorf("core: reading dataset fingerprint: %w", err)
	}
	if want := DatasetFingerprint(inst); fp != want {
		return nil, fmt.Errorf("core: snapshot fingerprint %#x does not match dataset %#x: index was built from a different dataset", fp, want)
	}

	idx := &Index{inst: inst, trajs: inst.Trajs}
	if version >= 3 {
		if err := get(&idx.walLSN); err != nil {
			return nil, fmt.Errorf("core: reading snapshot WAL LSN: %w", err)
		}
	}
	if err := get(&idx.opts.Gamma); err != nil {
		return nil, err
	}
	if err := get(&idx.opts.TauMin); err != nil {
		return nil, err
	}
	if err := get(&idx.opts.TauMax); err != nil {
		return nil, err
	}
	if !(idx.opts.Gamma > 0 && idx.opts.Gamma <= 1) {
		return nil, fmt.Errorf("core: snapshot γ = %v outside (0,1]", idx.opts.Gamma)
	}
	if !(idx.opts.TauMin > 0 && idx.opts.TauMin < idx.opts.TauMax) {
		return nil, fmt.Errorf("core: snapshot τ range [%v, %v) invalid", idx.opts.TauMin, idx.opts.TauMax)
	}
	var nNodes, nTrajs uint32
	if err := get(&nNodes); err != nil {
		return nil, err
	}
	if err := get(&nTrajs); err != nil {
		return nil, err
	}
	if int(nNodes) != inst.G.NumNodes() {
		return nil, fmt.Errorf("core: index built over %d nodes, instance has %d", nNodes, inst.G.NumNodes())
	}
	if int(nTrajs) != inst.Trajs.Len() {
		return nil, fmt.Errorf("core: index built over %d trajectories, instance has %d", nTrajs, inst.Trajs.Len())
	}
	getMask := func(n uint32) ([]bool, error) {
		raw := make([]byte, n)
		if _, err := io.ReadFull(hr, raw); err != nil {
			return nil, err
		}
		bits := make([]bool, n)
		for i, b := range raw {
			bits[i] = b == 1
		}
		return bits, nil
	}
	var err error
	if idx.isSite, err = getMask(nNodes); err != nil {
		return nil, err
	}
	idx.siteID = make([]int32, nNodes)
	for v := range idx.siteID {
		idx.siteID[v] = -1
	}
	// Dense site ids follow the instance's site list order.
	for i, s := range inst.Sites {
		if !idx.isSite[s] {
			return nil, fmt.Errorf("core: instance site %d not marked in snapshot", s)
		}
		idx.siteID[s] = int32(i)
	}
	if idx.alive, err = getMask(nTrajs); err != nil {
		return nil, err
	}
	var nInst uint32
	if err := get(&nInst); err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 24
	// Build produces exactly ⌊log_{1+γ}(τmax/τmin)⌋+1 rungs, so the ladder
	// length is fully determined by the (already validated) header rather
	// than a fixed guess — a γ=0.05 ladder with 95 rungs must load, while a
	// corrupt count (in either direction: a shortened ladder would load
	// "cleanly" and then silently serve every high-τ query from the wrong
	// rung) fails fast. ladderRungs/maxLadderRungs are shared with Build,
	// which rejects ladders outside [1, maxLadderRungs] at build time — so
	// a header implying one cannot come from this library and is rejected
	// outright rather than given a fallback bound.
	expInst := int64(ladderRungs(idx.opts.Gamma, idx.opts.TauMin, idx.opts.TauMax))
	if expInst < 1 || expInst > maxLadderRungs {
		return nil, fmt.Errorf("core: header implies a %d-rung ladder (buildable range is 1..%d)", expInst, maxLadderRungs)
	}
	if int64(nInst) != expInst {
		return nil, fmt.Errorf("core: instance count %d does not match the %d-rung ladder the header implies", nInst, expInst)
	}
	for p := uint32(0); p < nInst; p++ {
		ins := &Instance{
			NodeCluster:  make([]ClusterID, nNodes),
			nodeCenterDr: make([]float64, nNodes),
		}
		for v := range ins.NodeCluster {
			ins.NodeCluster[v] = InvalidCluster
		}
		if err := get(&ins.Radius); err != nil {
			return nil, err
		}
		var nClusters uint32
		if err := get(&nClusters); err != nil {
			return nil, err
		}
		if nClusters > maxReasonable {
			return nil, fmt.Errorf("core: implausible cluster count %d", nClusters)
		}
		for ci := uint32(0); ci < nClusters; ci++ {
			var cl Cluster
			var center, rep int32
			if err := get(&center); err != nil {
				return nil, err
			}
			if err := get(&rep); err != nil {
				return nil, err
			}
			if center < 0 || uint32(center) >= nNodes {
				return nil, fmt.Errorf("core: cluster %d center %d out of range", ci, center)
			}
			if rep != int32(roadnet.InvalidNode) && (rep < 0 || uint32(rep) >= nNodes) {
				return nil, fmt.Errorf("core: cluster %d representative %d out of range", ci, rep)
			}
			cl.Center = roadnet.NodeID(center)
			cl.Rep = roadnet.NodeID(rep)
			if err := get(&cl.RepDr); err != nil {
				return nil, err
			}
			var nMembers uint32
			if err := get(&nMembers); err != nil {
				return nil, err
			}
			if nMembers > nNodes {
				return nil, fmt.Errorf("core: cluster %d has %d members over %d nodes", ci, nMembers, nNodes)
			}
			cl.Members = make([]roadnet.NodeID, nMembers)
			cl.MemberDr = make([]float64, nMembers)
			for i := uint32(0); i < nMembers; i++ {
				var v int32
				if err := get(&v); err != nil {
					return nil, err
				}
				if v < 0 || uint32(v) >= nNodes {
					return nil, fmt.Errorf("core: member node %d out of range", v)
				}
				cl.Members[i] = roadnet.NodeID(v)
				if err := get(&cl.MemberDr[i]); err != nil {
					return nil, err
				}
				ins.NodeCluster[v] = ClusterID(ci)
				ins.nodeCenterDr[v] = cl.MemberDr[i]
			}
			var nTL uint32
			if err := get(&nTL); err != nil {
				return nil, err
			}
			if nTL > nTrajs {
				return nil, fmt.Errorf("core: cluster %d TL size %d over %d trajectories", ci, nTL, nTrajs)
			}
			cl.TL = make([]TrajEntry, nTL)
			for i := uint32(0); i < nTL; i++ {
				var tid int32
				if err := get(&tid); err != nil {
					return nil, err
				}
				if tid < 0 || uint32(tid) >= nTrajs {
					return nil, fmt.Errorf("core: cluster %d TL trajectory %d out of range", ci, tid)
				}
				// The cover fill relies on both: it sweeps TL tails past a
				// cover's horizon and does not re-check liveness.
				if i > 0 && trajectory.ID(tid) <= cl.TL[i-1].Traj {
					return nil, fmt.Errorf("core: cluster %d TL is not strictly ascending at trajectory %d", ci, tid)
				}
				if !idx.alive[tid] {
					return nil, fmt.Errorf("core: cluster %d TL lists deleted trajectory %d", ci, tid)
				}
				cl.TL[i].Traj = trajectory.ID(tid)
				if err := get(&cl.TL[i].Dr); err != nil {
					return nil, err
				}
			}
			var nCL uint32
			if err := get(&nCL); err != nil {
				return nil, err
			}
			if nCL > nClusters {
				return nil, fmt.Errorf("core: cluster %d CL size %d over %d clusters", ci, nCL, nClusters)
			}
			cl.CL = make([]NeighborEntry, nCL)
			for i := uint32(0); i < nCL; i++ {
				var cj int32
				if err := get(&cj); err != nil {
					return nil, err
				}
				if cj < 0 || uint32(cj) >= nClusters {
					return nil, fmt.Errorf("core: cluster %d CL neighbor %d out of range", ci, cj)
				}
				cl.CL[i].Cluster = ClusterID(cj)
				if err := get(&cl.CL[i].Dr); err != nil {
					return nil, err
				}
			}
			ins.Clusters = append(ins.Clusters, cl)
		}
		var nCC uint32
		if err := get(&nCC); err != nil {
			return nil, err
		}
		// Build sizes CC to the trajectory count and every update keeps it
		// there, so any other value is corruption — and requiring equality
		// also blocks the pre-CRC memory amplification a huge count would
		// otherwise cause (and the silently skipped TL removals in
		// DeleteTrajectory a short one would cause).
		if nCC != nTrajs {
			return nil, fmt.Errorf("core: CC count %d does not match %d trajectories", nCC, nTrajs)
		}
		ins.CC = make([][]ClusterID, nCC)
		for t := uint32(0); t < nCC; t++ {
			var l uint32
			if err := get(&l); err != nil {
				return nil, err
			}
			if l > nClusters {
				return nil, fmt.Errorf("core: CC list %d longer than cluster count", t)
			}
			if l > 0 {
				ins.CC[t] = make([]ClusterID, l)
				for i := uint32(0); i < l; i++ {
					var c int32
					if err := get(&c); err != nil {
						return nil, err
					}
					if c < 0 || uint32(c) >= nClusters {
						return nil, fmt.Errorf("core: CC list %d entry %d out of range", t, c)
					}
					ins.CC[t][i] = ClusterID(c)
				}
			}
		}
		idx.Instances = append(idx.Instances, ins)
	}
	// Trailer: the CRC of everything consumed so far, read from under the
	// hashing layer so it is compared against — not folded into — the sum.
	want := hr.sum.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(hr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("core: reading snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("core: snapshot checksum mismatch (%#x on disk, %#x computed): file is corrupt", got, want)
	}
	// The stream must end exactly here: trailing bytes mean it is not the
	// snapshot it claims to be (concatenation, overwrite debris).
	if _, err := hr.r.ReadByte(); err == nil {
		return nil, fmt.Errorf("core: trailing data after snapshot payload")
	} else if err != io.EOF {
		return nil, err
	}
	for p := range idx.Instances {
		if err := idx.validateInstance(p); err != nil {
			return nil, fmt.Errorf("core: loaded instance %d invalid: %w", p, err)
		}
	}
	return idx, nil
}

// WriteSnapshotFile writes the snapshot to path atomically: the bytes land
// in a temporary sibling first and are renamed into place, so a concurrent
// reader (or a crash mid-write) never observes a torn snapshot.
func (idx *Index) WriteSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: snapshot temp file: %w", err)
	}
	if _, err := idx.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	// Flush to stable storage before publishing, so a machine crash right
	// after the rename cannot leave an empty or partial file at the final
	// path (rename alone only orders metadata, not data, on ext4-style
	// filesystems).
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: closing snapshot: %w", err)
	}
	// CreateTemp's 0600 would make shared caches (CI writes, service
	// reads) silently miss for every other user; snapshots are not secret.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: snapshot permissions: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: publishing snapshot: %w", err)
	}
	return nil
}

// ReadIndexFile loads a snapshot from path and re-attaches it to inst.
func ReadIndexFile(path string, inst *tops.Instance) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening snapshot: %w", err)
	}
	defer f.Close()
	idx, err := ReadIndex(f, inst)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %s: %w", path, err)
	}
	return idx, nil
}
