package roadnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"netclus/internal/geo"
)

func TestGraphSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 50, 120)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", h.NumNodes(), h.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Point(NodeID(v)) != h.Point(NodeID(v)) {
			t.Fatalf("node %d point mismatch", v)
		}
	}
	// Distances must be identical (edge multiset preserved up to order).
	for src := NodeID(0); src < 10; src++ {
		a := Dijkstra(g, src, Forward)
		b := Dijkstra(h, src, Forward)
		for v := range a {
			if math.Abs(a[v]-b[v]) > 1e-12 {
				t.Fatalf("distance mismatch after round trip: src=%d v=%d", src, v)
			}
		}
	}
}

func TestReadGraphRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated": {0x31, 0x47, 0x43, 0x4e, 5, 0, 0, 0, 9, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := ReadGraph(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadGraphRejectsImplausibleSizes(t *testing.T) {
	var buf bytes.Buffer
	g := New(1)
	g.AddNode(geo.Point{})
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the node count to an absurd value.
	data[4], data[5], data[6], data[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadGraph(bytes.NewReader(data)); err == nil {
		t.Error("implausible node count accepted")
	}
}

// TestReadGraphSizesFromBytesRead: a 12-byte header that claims the cap's
// 2^28 nodes fails at EOF without first reserving them (≈ 16 GiB).
func TestReadGraphSizesFromBytesRead(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, graphMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<28)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadGraph(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header-only graph loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a header-only graph allocated %d bytes", grew)
	}
}

// TestLoadersRejectNonFiniteCoordinates: a node at NaN or ±Inf gives its
// edges no length, which leaves the graph without a slope and silently turns
// the goal-directed searches into Dijkstra, so both loaders refuse it with
// an error naming the node.
func TestLoadersRejectNonFiniteCoordinates(t *testing.T) {
	for _, bad := range []string{"N 1 Inf 0", "N 1 NaN 0", "N 1 -Inf 0", "N 1 0 +Inf", "N 1 0 nan"} {
		_, err := ReadText(strings.NewReader("N 0 0 0\n" + bad + "\nB 0 1 1\n"))
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Errorf("ReadText(%q) = %v, want an error naming node 1", bad, err)
		}
	}
	for _, bad := range []geo.Point{{X: math.Inf(1)}, {X: math.NaN()}, {Y: math.Inf(-1)}, {Y: math.NaN()}} {
		g := New(2)
		g.AddNode(geo.Point{})
		g.AddNode(bad)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadGraph(&buf)
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Errorf("ReadGraph of a node at %v = %v, want an error naming node 1", bad, err)
		}
	}
}
