// Package trajectory defines user trajectories over a road network and the
// raw GPS traces they are map-matched from.
//
// A trajectory T_j = (v_1, …, v_l) is the sequence of road intersections a
// user passed through (§2 of the paper). Alongside the node sequence the
// package maintains cumulative along-path distances, which the TOPS detour
// computation dr(T_j, s) uses as the distance d(v_k, v_l) between trajectory
// nodes: the paper precomputes only site→node distances, so the skipped
// segment is priced at what the user would actually have driven — the
// trajectory itself.
package trajectory

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
)

// ID identifies a trajectory within a Store.
type ID int32

// Trajectory is a map-matched user trajectory: an ordered sequence of road
// network nodes plus cumulative along-path distances in kilometres.
// CumDist[i] is the distance travelled from Nodes[0] to Nodes[i]; it has the
// same length as Nodes with CumDist[0] == 0.
type Trajectory struct {
	Nodes   []roadnet.NodeID
	CumDist []float64
}

// Len returns the number of recorded nodes.
func (t *Trajectory) Len() int { return len(t.Nodes) }

// Length returns the total travelled distance in kilometres.
func (t *Trajectory) Length() float64 {
	if len(t.CumDist) == 0 {
		return 0
	}
	return t.CumDist[len(t.CumDist)-1]
}

// New builds a trajectory from a node sequence, pricing each hop at the
// network edge weight when a direct edge exists and at the shortest-path
// distance otherwise. Consecutive duplicate nodes are collapsed. It returns
// an error if the sequence is empty, references invalid nodes, or contains a
// hop with no connecting path.
func New(g *roadnet.Graph, nodes []roadnet.NodeID) (*Trajectory, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("trajectory: empty node sequence")
	}
	t := &Trajectory{
		Nodes:   make([]roadnet.NodeID, 0, len(nodes)),
		CumDist: make([]float64, 0, len(nodes)),
	}
	for i, v := range nodes {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("trajectory: node %d at position %d outside graph", v, i)
		}
		if len(t.Nodes) > 0 && t.Nodes[len(t.Nodes)-1] == v {
			continue // collapse duplicates
		}
		if len(t.Nodes) == 0 {
			t.Nodes = append(t.Nodes, v)
			t.CumDist = append(t.CumDist, 0)
			continue
		}
		prev := t.Nodes[len(t.Nodes)-1]
		w := g.EdgeWeight(prev, v)
		if math.IsInf(w, 1) {
			_, w = roadnet.ShortestPath(g, prev, v)
			if math.IsInf(w, 1) {
				return nil, fmt.Errorf("trajectory: no path %d -> %d at position %d", prev, v, i)
			}
		}
		t.Nodes = append(t.Nodes, v)
		t.CumDist = append(t.CumDist, t.CumDist[len(t.CumDist)-1]+w)
	}
	return t, nil
}

// SubDist returns the along-trajectory distance from node index i to node
// index j (i <= j).
func (t *Trajectory) SubDist(i, j int) float64 {
	return t.CumDist[j] - t.CumDist[i]
}

// Validate checks internal invariants: matching lengths, monotone cumulative
// distances, no consecutive duplicates.
func (t *Trajectory) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("trajectory: empty")
	}
	if len(t.Nodes) != len(t.CumDist) {
		return fmt.Errorf("trajectory: nodes/cumdist length mismatch %d vs %d", len(t.Nodes), len(t.CumDist))
	}
	if t.CumDist[0] != 0 {
		return fmt.Errorf("trajectory: CumDist[0] = %v", t.CumDist[0])
	}
	for i := 1; i < len(t.CumDist); i++ {
		if t.CumDist[i] < t.CumDist[i-1] {
			return fmt.Errorf("trajectory: CumDist decreases at %d", i)
		}
		if t.Nodes[i] == t.Nodes[i-1] {
			return fmt.Errorf("trajectory: duplicate node at %d", i)
		}
	}
	return nil
}

// GPSPoint is a single raw observation of a moving user.
type GPSPoint struct {
	Pos  geo.Point
	Time float64 // seconds since trace start
}

// GPSTrace is a raw (pre-map-matching) GPS trace.
type GPSTrace struct {
	Points []GPSPoint
}

// Store is an indexed collection of trajectories, the T of the paper.
type Store struct {
	trajs []*Trajectory
}

// NewStore returns an empty store with capacity hint n.
func NewStore(n int) *Store { return &Store{trajs: make([]*Trajectory, 0, n)} }

// Add appends t and returns its id.
func (s *Store) Add(t *Trajectory) ID {
	s.trajs = append(s.trajs, t)
	return ID(len(s.trajs) - 1)
}

// Len returns m = |T|.
func (s *Store) Len() int { return len(s.trajs) }

// Get returns the trajectory with the given id.
func (s *Store) Get(id ID) *Trajectory { return s.trajs[id] }

// ForEach invokes fn for every trajectory in id order.
func (s *Store) ForEach(fn func(id ID, t *Trajectory)) {
	for i, t := range s.trajs {
		fn(ID(i), t)
	}
}

// Stats summarizes a store for experiment reporting.
type Stats struct {
	Count       int
	TotalNodes  int
	MeanNodes   float64
	MeanLength  float64 // km
	MaxLength   float64
	MinLength   float64
	MedianNodes int
}

// ComputeStats scans the store once and returns summary statistics.
func (s *Store) ComputeStats() Stats {
	st := Stats{Count: len(s.trajs), MinLength: math.Inf(1)}
	if st.Count == 0 {
		st.MinLength = 0
		return st
	}
	nodeCounts := make([]int, 0, len(s.trajs))
	var totalLen float64
	for _, t := range s.trajs {
		st.TotalNodes += t.Len()
		nodeCounts = append(nodeCounts, t.Len())
		l := t.Length()
		totalLen += l
		if l > st.MaxLength {
			st.MaxLength = l
		}
		if l < st.MinLength {
			st.MinLength = l
		}
	}
	st.MeanNodes = float64(st.TotalNodes) / float64(st.Count)
	st.MeanLength = totalLen / float64(st.Count)
	sort.Ints(nodeCounts)
	st.MedianNodes = nodeCounts[len(nodeCounts)/2]
	return st
}

// LengthClass partitions trajectories by travelled length, mirroring the
// length-class experiment (Fig. 12 of the paper).
type LengthClass struct {
	MinKm, MaxKm float64
	IDs          []ID
}

// ClassifyByLength buckets trajectory ids into the given [min,max) km
// classes. Trajectories outside every class are dropped.
func (s *Store) ClassifyByLength(bounds [][2]float64) []LengthClass {
	classes := make([]LengthClass, len(bounds))
	for i, b := range bounds {
		classes[i] = LengthClass{MinKm: b[0], MaxKm: b[1]}
	}
	for i, t := range s.trajs {
		l := t.Length()
		for ci := range classes {
			if l >= classes[ci].MinKm && l < classes[ci].MaxKm {
				classes[ci].IDs = append(classes[ci].IDs, ID(i))
				break
			}
		}
	}
	return classes
}

// Clone returns an independent store holding the same trajectories in the
// same id order. The *Trajectory values are shared (they are immutable once
// built); only the index is copied, so later Adds to either store do not
// affect the other. The sharded engine clones the store per shard so every
// shard assigns identical ids to dynamically added trajectories.
func (s *Store) Clone() *Store {
	out := NewStore(len(s.trajs))
	out.trajs = append(out.trajs, s.trajs...)
	return out
}

// Sample returns a new store holding the trajectories with the given ids.
func (s *Store) Sample(ids []ID) *Store {
	out := NewStore(len(ids))
	for _, id := range ids {
		out.Add(s.trajs[id])
	}
	return out
}

// Binary serialization: magic, count, then per trajectory node count and
// node ids; cumulative distances are rebuilt at load time from the graph.

const storeMagic uint32 = 0x4e435431 // "NCT1"

// maxPrealloc caps the capacity ReadStore reserves from a count it has not
// yet read the payload for; a larger store or trajectory grows by append.
const maxPrealloc = 1 << 12

// WriteTo serializes the store.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := put(storeMagic); err != nil {
		return n, err
	}
	if err := put(uint32(len(s.trajs))); err != nil {
		return n, err
	}
	for _, t := range s.trajs {
		if err := put(uint32(len(t.Nodes))); err != nil {
			return n, err
		}
		for i, v := range t.Nodes {
			if err := put(uint32(v)); err != nil {
				return n, err
			}
			if err := put(t.CumDist[i]); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadStore deserializes a store written by WriteTo.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var magic, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("trajectory: reading magic: %w", err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("trajectory: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trajectory: reading count: %w", err)
	}
	const maxReasonable = 1 << 28
	if count > maxReasonable {
		return nil, fmt.Errorf("trajectory: implausible count %d", count)
	}
	s := NewStore(min(int(count), maxPrealloc))
	for i := uint32(0); i < count; i++ {
		var l uint32
		if err := binary.Read(br, binary.LittleEndian, &l); err != nil {
			return nil, fmt.Errorf("trajectory %d: %w", i, err)
		}
		if l == 0 || l > maxReasonable {
			return nil, fmt.Errorf("trajectory %d: implausible length %d", i, l)
		}
		t := &Trajectory{
			Nodes:   make([]roadnet.NodeID, 0, min(int(l), maxPrealloc)),
			CumDist: make([]float64, 0, min(int(l), maxPrealloc)),
		}
		for j := uint32(0); j < l; j++ {
			var v uint32
			var d float64
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("trajectory %d node %d: %w", i, j, err)
			}
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return nil, fmt.Errorf("trajectory %d node %d: %w", i, j, err)
			}
			t.Nodes = append(t.Nodes, roadnet.NodeID(v))
			t.CumDist = append(t.CumDist, d)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("trajectory %d: %w", i, err)
		}
		s.Add(t)
	}
	return s, nil
}
