package mapmatch

import (
	"encoding/binary"
	"math"
	"testing"

	"netclus/internal/gen"
	"netclus/internal/geo"
	"netclus/internal/trajectory"
)

// TestMatchRoundTripProperty drives the full emit→match loop across a
// grid of sampling rates and noise levels: trajectories generated on the
// network, degraded to GPS traces by gen.EmitGPS, must map-match back to
// walks whose length stays within a detour bound of the source. The bound
// is the property — a matcher that shortcuts across the grid or detours
// wildly fails it even when no call errors.
func TestMatchRoundTripProperty(t *testing.T) {
	city := testCity(t)
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		sampleEveryKm float64
		noiseSigmaKm  float64
		minOK         int // of store.Len()
	}{
		{"dense-clean", 0.10, -1, 8},
		{"dense-light-noise", 0.15, 0.01, 7},
		{"paper-default", 0.25, 0.02, 6},
		{"sparse-noisy", 0.40, 0.03, 6},
	}
	m := NewMatcher(city.Graph, Config{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ok := 0
			for i := 0; i < store.Len(); i++ {
				orig := store.Get(trajectory.ID(i))
				trace := gen.EmitGPS(city.Graph, orig, gen.GPSConfig{
					SampleEveryKm: c.sampleEveryKm,
					NoiseSigmaKm:  c.noiseSigmaKm,
					Seed:          int64(1000*i) + 17,
				})
				got, err := m.Match(trace)
				if err != nil {
					continue
				}
				// Detour bound: the matched walk may cut corners the
				// sampling missed (shorter) or wiggle through noise
				// (longer), but must stay commensurate with the source.
				ratio := got.Length() / orig.Length()
				if ratio >= 0.5 && ratio <= 1.6 {
					ok++
				}
			}
			if ok < c.minOK {
				t.Errorf("%s: only %d/%d traces matched within the detour bound (need %d)",
					c.name, ok, store.Len(), c.minOK)
			}
		})
	}
}

// FuzzMatch feeds adversarial traces to the matcher: arbitrary float
// coordinates (NaN, ±Inf, huge magnitudes), empty and single-point traces,
// points far off the network. Errors are fine, crashes are not; and every
// outcome must be the frozen reference matcher's (reference_test.go): the
// same error-or-not, the same node walk. One Matcher serves every input,
// so state a trace leaves in the pooled lattice or scratch is fuzzed too.
func FuzzMatch(f *testing.F) {
	f.Add([]byte{})                            // empty trace
	f.Add(mkPoints(1.0, 1.0))                  // single on-network point
	f.Add(mkPoints(1, 1, 2, 1, 3, 1))          // clean short trace
	f.Add(mkPoints(math.NaN(), 2, 3, 4))       // NaN coordinate
	f.Add(mkPoints(math.Inf(1), math.Inf(-1))) // infinite coordinates
	f.Add(mkPoints(1e18, -1e18, 0, 0))         // absurd magnitudes
	f.Add(mkPoints(500, 500, 501, 500))        // far off-network

	city, err := gen.GenerateCity(gen.CityConfig{
		Topology: gen.GridMesh, Nodes: 100, SpanKm: 5, Jitter: 0.2, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{MinPointSpacingKm: 0.05}
	m, ref := NewMatcher(city.Graph, cfg), newRefMatcher(city.Graph, cfg)

	f.Fuzz(func(t *testing.T, data []byte) {
		trace := decodeFuzzTrace(data)
		if !sameMatch(t, "fuzz trace", m, ref, trace) {
			return
		}
		tr, err := m.Match(trace)
		if err != nil {
			t.Fatalf("Match failed on a trace it matched a moment ago: %v", err)
		}
		if tr == nil {
			t.Fatal("Match returned nil trajectory without error")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Match returned invalid trajectory: %v", err)
		}
	})
}

// decodeFuzzTrace interprets each 16-byte window as an (x, y) coordinate
// pair so the fuzzer controls raw float bit patterns.
func decodeFuzzTrace(data []byte) trajectory.GPSTrace {
	const maxPts = 64
	var pts []trajectory.GPSPoint
	for len(data) >= 16 && len(pts) < maxPts {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
		pts = append(pts, trajectory.GPSPoint{Pos: geo.Point{X: x, Y: y}, Time: float64(len(pts))})
		data = data[16:]
	}
	return trajectory.GPSTrace{Points: pts}
}

func mkPoints(coords ...float64) []byte {
	buf := make([]byte, 8*len(coords))
	for i, c := range coords {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(c))
	}
	return buf
}
