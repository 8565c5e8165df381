package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPercentile is the definition percentile implements, written the slow
// way: the smallest sample with at least q of all samples at or below it.
func refPercentile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for _, v := range s {
		atOrBelow := 0
		for _, w := range s {
			if w <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= q*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 19, 20, 21, 100, 997} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Round(rng.ExpFloat64()*100) / 10 // ties included
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
			if got, want := percentile(sorted, q), refPercentile(vs, q); got != want {
				t.Errorf("n=%d q=%v: percentile %v, reference %v", n, q, got, want)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSliceCountKeepsTailSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.95, 1}, {99, 0.95, 1}, {100, 0.95, 1}, {200, 0.95, 2}, {999, 0.95, 9}, {1000, 0.95, 10}, {100000, 0.95, 10},
		{9, 0.5, 1}, {20, 0.5, 2}, {7000, 0.5, 10},
	} {
		got := sliceCount(c.n, c.q)
		if got != c.want {
			t.Errorf("sliceCount(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got > 1 && float64(c.n)/float64(got)*(1-c.q) < tailSamples-1e-9 {
			t.Errorf("sliceCount(%d, %v) = %d leaves fewer than %d samples beyond the quantile", c.n, c.q, got, tailSamples)
		}
	}
}

// One slice of a ten-slice window is hit by a burst that multiplies its
// latencies; the sliced quantile must not move, the plain one must.
func TestSliceQuantileIgnoresOneBurst(t *testing.T) {
	const window, n = 10.0, 4000
	rng := rand.New(rand.NewSource(2))
	var calm, burst []timed
	for i := 0; i < n; i++ {
		at := float64(i) / n * window
		v := 1 + rng.Float64()
		calm = append(calm, timed{at, v})
		if at >= 3 && at < 4 {
			v *= 20
		}
		burst = append(burst, timed{at, v})
	}
	if c, b := sliceQuantile(calm, 0.95, window), sliceQuantile(burst, 0.95, window); math.Abs(b-c) > 0.02*c {
		t.Errorf("sliced p95 moved from %v to %v under a one-slice burst", c, b)
	}
	plain := make([]float64, n)
	for i, s := range burst {
		plain[i] = s.v
	}
	sort.Float64s(plain)
	if p := percentile(plain, 0.95); p < 10 {
		t.Errorf("unsliced p95 = %v; the burst should dominate it, or this test shows nothing", p)
	}

	// Against a by-hand computation on a tiny input: two slices, p50 each.
	small := []timed{{0.1, 5}, {0.2, 1}, {0.3, 3}, {0.6, 10}, {0.7, 30}, {0.9, 20}}
	for i := 0; i < 7; i++ { // pad both halves equally so sliceCount picks 2
		small = append(small, timed{0.25, 3}, timed{0.75, 20})
	}
	if got, want := sliceQuantile(small, 0.5, 1), (3.0+20.0)/2; got != want {
		t.Errorf("sliceQuantile on the hand-made input = %v, want %v", got, want)
	}
}
