package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest value with at least q of the samples at or below it. It is
// a sample that actually occurred, never an interpolation.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// timed is one latency observation placed on the window's time axis.
type timed struct {
	at float64 // seconds since window start (the operation's due time)
	v  float64
}

// maxSlices caps how finely a window is cut; tailSamples is how many
// samples every slice must keep beyond the reported quantile. Five, not
// ten: the median over slices shrugs off a disturbance only while it covers
// fewer than half of them, and ingest_stream's p95 at ten got two slices
// (run-to-run spread 21 % on the samples that give 6 % cut into ten).
const (
	maxSlices   = 10
	tailSamples = 5
)

// sliceCount is how many equal time slices a window of n samples is cut
// into for quantile q: as many as possible up to maxSlices while an
// average slice keeps tailSamples samples beyond q.
func sliceCount(n int, q float64) int {
	perSlice := float64(tailSamples) / (1 - q)
	s := int(float64(n) / perSlice)
	if s < 1 {
		return 1
	}
	if s > maxSlices {
		return maxSlices
	}
	return s
}

// sliceQuantile cuts [0, window) into equal time slices, takes quantile q
// inside each, and returns the median of those — so one burst of outside
// interference moves one slice, not the result. Empty slices are skipped.
func sliceQuantile(samples []timed, q, window float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices := sliceCount(len(samples), q)
	buckets := make([][]float64, slices)
	for _, s := range samples {
		i := int(s.at / window * float64(slices))
		if i < 0 {
			i = 0
		}
		if i >= slices {
			i = slices - 1
		}
		buckets[i] = append(buckets[i], s.v)
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		qs = append(qs, percentile(b, q))
	}
	return median(qs)
}
