package trajectory

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"netclus/internal/geo"
	"netclus/internal/roadnet"
)

// lineGraph builds 0 -1- 1 -1- 2 -1- 3 -1- 4 (bidirectional unit edges).
func lineGraph(t *testing.T, n int) *roadnet.Graph {
	t.Helper()
	g := roadnet.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: float64(i)})
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddBidirectional(roadnet.NodeID(i), roadnet.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewBasic(t *testing.T) {
	g := lineGraph(t, 5)
	tr, err := New(g, []roadnet.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Length() != 3 {
		t.Errorf("Length = %v", tr.Length())
	}
	if tr.SubDist(1, 3) != 2 {
		t.Errorf("SubDist(1,3) = %v", tr.SubDist(1, 3))
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewCollapsesDuplicates(t *testing.T) {
	g := lineGraph(t, 4)
	tr, err := New(g, []roadnet.NodeID{0, 0, 1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	if tr.Length() != 2 {
		t.Errorf("Length = %v, want 2", tr.Length())
	}
}

func TestNewGapFilledByShortestPath(t *testing.T) {
	g := lineGraph(t, 6)
	// Hop 0 -> 3 has no direct edge; distance must be shortest path = 3.
	tr, err := New(g, []roadnet.NodeID{0, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Length() != 5 {
		t.Errorf("Length = %v, want 5", tr.Length())
	}
}

func TestNewErrors(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := New(g, nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := New(g, []roadnet.NodeID{0, 99}); err == nil {
		t.Error("invalid node accepted")
	}
	// Disconnected hop.
	g2 := roadnet.New(2)
	g2.AddNode(geo.Point{})
	g2.AddNode(geo.Point{X: 1})
	if _, err := New(g2, []roadnet.NodeID{0, 1}); err == nil {
		t.Error("disconnected hop accepted")
	}
}

func TestSingleNodeTrajectory(t *testing.T) {
	// Static users are trajectories with a single location (§1 of paper).
	g := lineGraph(t, 3)
	tr, err := New(g, []roadnet.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Length() != 0 {
		t.Errorf("single node: len=%d length=%v", tr.Len(), tr.Length())
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := lineGraph(t, 4)
	tr, _ := New(g, []roadnet.NodeID{0, 1, 2})
	tr.CumDist[2] = 0.1 // decreasing
	if err := tr.Validate(); err == nil {
		t.Error("decreasing CumDist accepted")
	}
	tr2, _ := New(g, []roadnet.NodeID{0, 1})
	tr2.Nodes = tr2.Nodes[:1]
	if err := tr2.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	tr3 := &Trajectory{}
	if err := tr3.Validate(); err == nil {
		t.Error("empty trajectory accepted")
	}
}

func TestStoreBasics(t *testing.T) {
	g := lineGraph(t, 5)
	s := NewStore(2)
	t1, _ := New(g, []roadnet.NodeID{0, 1, 2})
	t2, _ := New(g, []roadnet.NodeID{2, 3, 4})
	id1 := s.Add(t1)
	id2 := s.Add(t2)
	if s.Len() != 2 || id1 == id2 {
		t.Fatalf("store len=%d ids=%d,%d", s.Len(), id1, id2)
	}
	if s.Get(id1) != t1 || s.Get(id2) != t2 {
		t.Error("Get returned wrong trajectory")
	}
	var visited int
	s.ForEach(func(id ID, tr *Trajectory) { visited++ })
	if visited != 2 {
		t.Errorf("ForEach visited %d", visited)
	}
}

func TestComputeStats(t *testing.T) {
	g := lineGraph(t, 10)
	s := NewStore(3)
	for _, nodes := range [][]roadnet.NodeID{{0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}} {
		tr, err := New(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(tr)
	}
	st := s.ComputeStats()
	if st.Count != 3 || st.TotalNodes != 12 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanNodes != 4 || st.MedianNodes != 4 {
		t.Errorf("node stats = %+v", st)
	}
	if st.MinLength != 1 || st.MaxLength != 5 || math.Abs(st.MeanLength-3) > 1e-12 {
		t.Errorf("length stats = %+v", st)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := NewStore(0).ComputeStats()
	if st.Count != 0 || st.MinLength != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestClassifyByLength(t *testing.T) {
	g := lineGraph(t, 10)
	s := NewStore(4)
	for _, nodes := range [][]roadnet.NodeID{
		{0, 1},             // 1 km
		{0, 1, 2, 3},       // 3 km
		{0, 1, 2, 3, 4, 5}, // 5 km
		{0, 1, 2},          // 2 km
	} {
		tr, _ := New(g, nodes)
		s.Add(tr)
	}
	classes := s.ClassifyByLength([][2]float64{{0, 2}, {2, 4}, {4, 10}})
	if len(classes[0].IDs) != 1 || len(classes[1].IDs) != 2 || len(classes[2].IDs) != 1 {
		t.Errorf("classes = %+v", classes)
	}
	sampled := s.Sample(classes[1].IDs)
	if sampled.Len() != 2 {
		t.Errorf("sampled len = %d", sampled.Len())
	}
}

func TestStoreSerializationRoundTrip(t *testing.T) {
	g := lineGraph(t, 8)
	s := NewStore(3)
	for _, nodes := range [][]roadnet.NodeID{{0, 1, 2}, {5, 6, 7}, {3}} {
		tr, err := New(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(tr)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", s2.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.Get(ID(i)), s2.Get(ID(i))
		if a.Len() != b.Len() || a.Length() != b.Length() {
			t.Fatalf("trajectory %d mismatch", i)
		}
		for j := range a.Nodes {
			if a.Nodes[j] != b.Nodes[j] || a.CumDist[j] != b.CumDist[j] {
				t.Fatalf("trajectory %d node %d mismatch", i, j)
			}
		}
	}
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": {9, 9, 9, 9, 0, 0, 0, 0},
		"truncated": {0x31, 0x54, 0x43, 0x4e, 2, 0, 0, 0},
	} {
		if _, err := ReadStore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestReadStoreSizesFromBytesRead: a header that claims the cap's 2^28
// trajectories, or one trajectory of 2^28 points, fails at EOF without
// first reserving them (2 and 3 GiB).
func TestReadStoreSizesFromBytesRead(t *testing.T) {
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"trajectories": words(storeMagic, 1<<28),
		"points":       words(storeMagic, 1, 1<<28),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadStore(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a header-only store loaded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: a header-only store allocated %d bytes", name, grew)
		}
	}
}
