package trajectory_test

import (
	"bytes"
	"testing"

	"netclus/internal/gen"
	"netclus/internal/trajectory"
)

// FuzzReadStore: any input either loads or is refused with an error, and a
// loaded store's WriteTo output reads back to the same bytes. The seed is
// the trajectories of a small generated city.
func FuzzReadStore(f *testing.F) {
	city, err := gen.GenerateCity(gen.CityConfig{Topology: gen.GridMesh, Nodes: 64, SpanKm: 3, Jitter: 0.25, OneWayFrac: 0.1, RemoveFrac: 0.05, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 12, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trajectory.ReadStore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := s.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		s2, err := trajectory.ReadStore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading WriteTo output: %v", err)
		}
		if _, err := s2.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("round trip changed the store")
		}
	})
}
