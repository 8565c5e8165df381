package roadnet

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestDistancesToMatchesBounded pins DistancesTo to Bounded: every target
// gets the bit-identical distance Bounded maps it to, or +Inf exactly when
// Bounded does not reach it — across radii, duplicate targets, the source
// itself as a target, and targets outside the radius.
func TestDistancesToMatchesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := euclidGraph(rng, 40+rng.Intn(80))
		s := NewScratch(g)
		ref := NewScratch(g)
		for q := 0; q < 50; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			radius := rng.Float64() * 8
			if q%10 == 0 {
				radius = -1
			}
			targets := make([]NodeID, 1+rng.Intn(7))
			for i := range targets {
				targets[i] = NodeID(rng.Intn(g.NumNodes()))
			}
			if q%3 == 0 {
				targets[0] = src
			}
			if len(targets) > 1 && q%4 == 0 {
				targets[1] = targets[len(targets)-1]
			}
			out := make([]float64, len(targets))
			s.DistancesTo(g, src, radius, targets, out)
			want := ref.Bounded(g, src, Forward, radius)
			for i, v := range targets {
				if w := want.Get(v); math.Float64bits(out[i]) != math.Float64bits(w) {
					t.Fatalf("trial %d query %d: target %d (node %d) = %v, Bounded %v", trial, q, i, v, out[i], w)
				}
			}
		}
	}
}

func TestDistancesToInvalidSource(t *testing.T) {
	g := euclidGraph(rand.New(rand.NewSource(1)), 10)
	out := []float64{0, 0}
	NewScratch(g).DistancesTo(g, -1, 5, []NodeID{0, 1}, out)
	for i, d := range out {
		if !math.IsInf(d, 1) {
			t.Errorf("target %d from an invalid source = %v, want +Inf", i, d)
		}
	}
}

// TestScratchSizeIsWholeLinePairs guards DijkstraScratch's padding: a new
// field must re-pad the struct to a multiple of 128 bytes.
func TestScratchSizeIsWholeLinePairs(t *testing.T) {
	if n := unsafe.Sizeof(DijkstraScratch{}); n%128 != 0 {
		t.Fatalf("DijkstraScratch is %d bytes; pad it to a multiple of 128", n)
	}
}
