// Package wal is the durability layer of the serving stack: an append-only
// write-ahead log of the §6 dynamic mutations, plus the checkpoint container
// that pairs a live snapshot with the mutated dataset it re-attaches to.
//
// The log is a directory of segment files. Every record is CRC32-framed and
// carries a log sequence number (LSN); LSNs are dense (each record's LSN is
// its predecessor's plus one), so a snapshot stamped with LSN w recovers by
// replaying exactly the records with LSN > w. Segments rotate at a size
// threshold and compaction deletes whole segments at or below the snapshot
// watermark. The same frame format streams over HTTP (/v1/log) to follower
// read-replicas, which apply records through the identical replay path a
// crash recovery uses.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// Kind types a log record: one value per §6 mutation, plus the batch
// frames the engine-level batch entry points emit.
type Kind uint8

const (
	// KindAddSite registers one candidate site.
	KindAddSite Kind = 1
	// KindDeleteSite removes one candidate site.
	KindDeleteSite Kind = 2
	// KindAddTrajectory ingests one trajectory (its node sequence).
	KindAddTrajectory Kind = 3
	// KindDeleteTrajectory removes one trajectory by id.
	KindDeleteTrajectory Kind = 4
	// KindAddSites is the batch frame of AddSites.
	KindAddSites Kind = 5
	// KindAddTrajectories is the batch frame of AddTrajectories.
	KindAddTrajectories Kind = 6
	// KindDeleteTrajectories is the batch frame of DeleteTrajectories.
	KindDeleteTrajectories Kind = 7
	// KindEpoch opens a primary term: the body is the u64 epoch (fencing
	// token). It flows through disk frames, the /v1/log stream, and replay
	// like any mutation, so every replica observes term changes in log
	// order and a checkpoint taken after it captures the epoch.
	KindEpoch Kind = 8
)

// kindNames is the one table between kinds and their names. The names
// double as the JSON op names of POST /v1/update, so the serving tiers lower
// an op through KindByName.
var kindNames = [...]string{
	KindAddSite:            "add_site",
	KindDeleteSite:         "delete_site",
	KindAddTrajectory:      "add_trajectory",
	KindDeleteTrajectory:   "delete_trajectory",
	KindAddSites:           "add_sites",
	KindAddTrajectories:    "add_trajectories",
	KindDeleteTrajectories: "delete_trajectories",
	KindEpoch:              "epoch",
}

func (k Kind) valid() bool { return k >= KindAddSite && k <= KindEpoch }

// String names the record kind for error messages and logs.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// KindByName is the inverse of String.
func KindByName(name string) (Kind, bool) {
	for k := KindAddSite; k <= KindEpoch; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// Routed reports whether k is a site kind. A site mutation routes to the
// one shard whose partition owns its node; every other mutation addresses
// the trajectory set, which all shards replicate, and broadcasts.
func (k Kind) Routed() bool {
	return k == KindAddSite || k == KindDeleteSite || k == KindAddSites
}

// Single reports whether k mutates exactly one item — the four kinds POST
// /v1/update accepts. The batch frames are library- and log-only.
func (k Kind) Single() bool { return k >= KindAddSite && k <= KindDeleteTrajectory }

// Record is one logged mutation: its sequence number, kind, and the
// kind-specific body (see the body encoders below).
type Record struct {
	LSN  uint64
	Kind Kind
	Body []byte
}

// Body encoders. Bodies are little-endian and fully self-delimiting so a
// record round-trips through disk and network identically. Mutation.Body
// picks the encoder for a kind; Record.Mutation is its inverse.

// NodeBody encodes a single id (node or trajectory id).
func NodeBody(v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// EpochBody encodes a KindEpoch record's fencing token.
func EpochBody(epoch uint64) []byte { return NodeBody(int64(epoch)) }

// IDListBody encodes a list of ids (site batches, trajectory-id batches):
// u32 count, then count u64 values.
func IDListBody[T ~int32](vs []T) []byte {
	b := make([]byte, 4+8*len(vs))
	binary.LittleEndian.PutUint32(b, uint32(len(vs)))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[4+8*i:], uint64(v))
	}
	return b
}

// TrajData is the logged form of one trajectory: node sequence plus the
// cumulative along-path distances. Logging CumDist (rather than
// re-deriving it at replay via trajectory.New) keeps recovery bit-exact
// even for trajectories a library caller assembled with distances
// trajectory.New would not produce.
type TrajData struct {
	Nodes []int64
	Cum   []float64
}

// FromTrajectory captures a trajectory for logging. The copy is what lets
// the caller go on using (or reusing) its own slices; a nil trajectory
// captures as the empty one, which no engine accepts.
func FromTrajectory(tr *trajectory.Trajectory) TrajData {
	if tr == nil {
		return TrajData{}
	}
	d := TrajData{Nodes: make([]int64, len(tr.Nodes)), Cum: append([]float64(nil), tr.CumDist...)}
	for i, v := range tr.Nodes {
		d.Nodes[i] = int64(v)
	}
	return d
}

// FromTrajectories captures a batch (see FromTrajectory).
func FromTrajectories(trs []*trajectory.Trajectory) []TrajData {
	out := make([]TrajData, len(trs))
	for i, tr := range trs {
		out[i] = FromTrajectory(tr)
	}
	return out
}

// Trajectory reconstructs the exact logged trajectory over g, validating
// node ranges and structural invariants (never panicking on garbage).
func (d TrajData) Trajectory(g *roadnet.Graph) (*trajectory.Trajectory, error) {
	if len(d.Nodes) != len(d.Cum) {
		return nil, fmt.Errorf("wal: trajectory record has %d nodes, %d distances", len(d.Nodes), len(d.Cum))
	}
	tr := &trajectory.Trajectory{
		Nodes:   make([]roadnet.NodeID, len(d.Nodes)),
		CumDist: append([]float64(nil), d.Cum...),
	}
	for i, v := range d.Nodes {
		if v < 0 || int64(int32(v)) != v || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("wal: trajectory record node %d outside graph", v)
		}
		tr.Nodes[i] = roadnet.NodeID(v)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("wal: trajectory record invalid: %w", err)
	}
	return tr, nil
}

// appendTraj encodes one trajectory: u32 len, len u64 nodes, len f64
// cumulative distances.
func appendTraj(b []byte, d TrajData) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Nodes)))
	for _, v := range d.Nodes {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, c := range d.Cum {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

// maxListLen bounds decoded list lengths: a record body is CRC-protected on
// disk, but followers decode frames straight off the network, so the
// decoder must stay allocation-safe on adversarial input.
const maxListLen = 1 << 24

// Mutation is one §6 update as a value — the only currency of the write
// path. A live caller builds one and hands it to an engine's Apply, which
// logs Body(); recovery and followers get the same value back from
// Record.Mutation and hand it to the same transition function. The fields
// a kind does not name are zero.
type Mutation struct {
	Kind Kind
	// Node addresses add_site / delete_site; Nodes is add_sites' batch.
	Node  roadnet.NodeID
	Nodes []roadnet.NodeID
	// ID addresses delete_trajectory; IDs is delete_trajectories' batch.
	ID  trajectory.ID
	IDs []trajectory.ID
	// Traj carries add_trajectory's data; Trajs carries add_trajectories'.
	Traj  TrajData
	Trajs []TrajData
	// Epoch carries a KindEpoch record's fencing token.
	Epoch uint64
}

// Sites returns the nodes a site kind addresses: the one node of add_site /
// delete_site, the batch of add_sites.
func (m Mutation) Sites() []roadnet.NodeID {
	if m.Kind == KindAddSites {
		return m.Nodes
	}
	return []roadnet.NodeID{m.Node}
}

// Trajectories returns the trajectories an add kind carries (nil for every
// other kind), decoded over g into fresh objects the receiving index may
// keep, and validated.
func (m Mutation) Trajectories(g *roadnet.Graph) ([]*trajectory.Trajectory, error) {
	src := m.Trajs
	if m.Kind == KindAddTrajectory {
		src = []TrajData{m.Traj}
	} else if m.Kind != KindAddTrajectories {
		return nil, nil
	}
	out := make([]*trajectory.Trajectory, len(src))
	for i, d := range src {
		tr, err := d.Trajectory(g)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// Body encodes the mutation as its record body, the exact inverse of
// Record.Mutation (FuzzMutationCodec holds the pair to it).
func (m Mutation) Body() []byte {
	switch m.Kind {
	case KindAddSite, KindDeleteSite:
		return NodeBody(int64(m.Node))
	case KindDeleteTrajectory:
		return NodeBody(int64(m.ID))
	case KindAddSites:
		return IDListBody(m.Nodes)
	case KindDeleteTrajectories:
		return IDListBody(m.IDs)
	case KindAddTrajectory:
		return appendTraj(nil, m.Traj)
	case KindAddTrajectories:
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Trajs)))
		for _, d := range m.Trajs {
			b = appendTraj(b, d)
		}
		return b
	case KindEpoch:
		return EpochBody(m.Epoch)
	default:
		return nil
	}
}

type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("wal: truncated body at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *bodyReader) i64() (int64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("wal: truncated body at offset %d", r.off)
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// readID reads one logged id into the 32-bit id type the index uses,
// rejecting a value that would wrap.
func readID[T ~int32](r *bodyReader) (T, error) {
	v, err := r.i64()
	if err == nil && int64(int32(v)) != v {
		err = fmt.Errorf("wal: id %d outside the 32-bit id range", v)
	}
	return T(v), err
}

func readIDList[T ~int32](r *bodyReader) ([]T, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxListLen {
		return nil, fmt.Errorf("wal: implausible list length %d", n)
	}
	if r.off+8*int(n) > len(r.b) {
		return nil, fmt.Errorf("wal: list of %d overruns body", n)
	}
	out := make([]T, n)
	for i := range out {
		if out[i], err = readID[T](r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *bodyReader) traj() (TrajData, error) {
	n, err := r.u32()
	if err != nil {
		return TrajData{}, err
	}
	if n > maxListLen {
		return TrajData{}, fmt.Errorf("wal: implausible trajectory length %d", n)
	}
	if r.off+16*int(n) > len(r.b) {
		return TrajData{}, fmt.Errorf("wal: trajectory of %d overruns body", n)
	}
	d := TrajData{Nodes: make([]int64, n), Cum: make([]float64, n)}
	for i := range d.Nodes {
		d.Nodes[i], _ = r.i64()
	}
	for i := range d.Cum {
		v, _ := r.i64()
		d.Cum[i] = math.Float64frombits(uint64(v))
	}
	return d, nil
}

func (r *bodyReader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("wal: %d trailing body bytes", len(r.b)-r.off)
	}
	return nil
}

// Mutation decodes the record body into its typed form. It never panics:
// any structural problem — unknown kind, truncated list, trailing bytes, an
// id past the 32-bit id types — is an error, so a follower can decode
// frames from an untrusted stream.
func (r Record) Mutation() (Mutation, error) {
	m := Mutation{Kind: r.Kind}
	br := &bodyReader{b: r.Body}
	var err error
	switch r.Kind {
	case KindAddSite, KindDeleteSite:
		m.Node, err = readID[roadnet.NodeID](br)
	case KindDeleteTrajectory:
		m.ID, err = readID[trajectory.ID](br)
	case KindAddSites:
		m.Nodes, err = readIDList[roadnet.NodeID](br)
	case KindDeleteTrajectories:
		m.IDs, err = readIDList[trajectory.ID](br)
	case KindAddTrajectory:
		m.Traj, err = br.traj()
	case KindEpoch:
		var v int64
		if v, err = br.i64(); err == nil {
			m.Epoch = uint64(v)
		}
	case KindAddTrajectories:
		var n uint32
		if n, err = br.u32(); err == nil {
			if n > maxListLen {
				return m, fmt.Errorf("wal: implausible trajectory count %d", n)
			}
			m.Trajs = make([]TrajData, 0, min(int(n), 1024))
			for i := uint32(0); i < n && err == nil; i++ {
				var tr TrajData
				tr, err = br.traj()
				m.Trajs = append(m.Trajs, tr)
			}
		}
	default:
		return m, fmt.Errorf("wal: unknown record kind %d", uint8(r.Kind))
	}
	if err != nil {
		return m, fmt.Errorf("wal: decoding %s record: %w", r.Kind, err)
	}
	if err := br.done(); err != nil {
		return m, fmt.Errorf("wal: decoding %s record: %w", r.Kind, err)
	}
	return m, nil
}
