package roadnet_test

import (
	"bytes"
	"testing"

	"netclus/internal/gen"
	"netclus/internal/roadnet"
)

// seedCity is the fuzzers' seed: a small generated city.
func seedCity(f *testing.F) *roadnet.Graph {
	f.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{Topology: gen.GridMesh, Nodes: 9, SpanKm: 1, Jitter: 0.25, OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	return city.Graph
}

// FuzzReadText: any input either loads or is refused with an error, and a
// loaded graph's WriteText output reads back to the same bytes.
func FuzzReadText(f *testing.F) {
	var buf bytes.Buffer
	if err := seedCity(f).WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# two-way street\nN 0 0 0\nN 1 1.5 0\nB 0 1 1.6\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := roadnet.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := g.WriteText(&first); err != nil {
			t.Fatal(err)
		}
		g2, err := roadnet.ReadText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading WriteText output: %v", err)
		}
		if err := g2.WriteText(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("text round trip changed the graph:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadGraph: any input either loads or is refused with an error, and a
// loaded graph's WriteTo output reads back to the same bytes.
func FuzzReadGraph(f *testing.F) {
	var buf bytes.Buffer
	if _, err := seedCity(f).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := roadnet.ReadGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		g2, err := roadnet.ReadGraph(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading WriteTo output: %v", err)
		}
		if _, err := g2.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("binary round trip changed the graph")
		}
	})
}
