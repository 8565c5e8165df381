package roadnet

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestReadTextBasic(t *testing.T) {
	input := `
# a tiny network
N 0 0.0 0.0
N 1 1.0 0.0
N 2 1.0 1.0
E 0 1 1.2
B 1 2 1.0
`
	g, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if w := g.EdgeWeight(0, 1); w != 1.2 {
		t.Errorf("w(0,1) = %v", w)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("B record did not create both directions")
	}
	if g.HasEdge(1, 0) {
		t.Error("E record created reverse direction")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"sparse ids":      "N 5 0 0\n",
		"unknown record":  "X 1 2 3\n",
		"short N":         "N 0 1\n",
		"bad coordinate":  "N 0 zero 0\n",
		"edge before":     "E 0 1 1\n",
		"bad weight":      "N 0 0 0\nN 1 1 0\nE 0 1 heavy\n",
		"negative weight": "N 0 0 0\nN 1 1 0\nE 0 1 -2\n",
		"self loop":       "N 0 0 0\nE 0 0 1\n",
	}
	for name, input := range cases {
		if _, err := ReadText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadTextRejectsWrappingIDs: an id past int32 would wrap onto a valid
// node (2^32 onto 0, 2^32 + 1 onto 1), on an N line's density check and on
// either end of an E or B line. Each must be refused, not loaded as the
// node it wraps to.
func TestReadTextRejectsWrappingIDs(t *testing.T) {
	const nodes = "N 0 0 0\nN 1 1 0\n"
	cases := map[string]string{
		"N id":   "N 4294967296 0 0\n",
		"N id 1": "N 0 0 0\nN 4294967297 1 0\n",
		"E from": nodes + "E 4294967296 1 1.5\n",
		"E to":   nodes + "E 0 4294967297 1.5\n",
		"B from": nodes + "B 4294967296 1 1.5\n",
		"B to":   nodes + "B 0 -4294967295 1.5\n",
	}
	for name, input := range cases {
		if g, err := ReadText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: loaded %d nodes and %d edges, want the id refused", name, g.NumNodes(), g.NumEdges())
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 60, 150)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch after round trip")
	}
	for src := NodeID(0); src < 10; src++ {
		a := Dijkstra(g, src, Forward)
		b := Dijkstra(h, src, Forward)
		for v := range a {
			if math.Abs(a[v]-b[v]) > 1e-9 && !(math.IsInf(a[v], 1) && math.IsInf(b[v], 1)) {
				t.Fatalf("distance mismatch src=%d v=%d: %v vs %v", src, v, a[v], b[v])
			}
		}
	}
}
