package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is one or two outliers, not a
// tail.
const minBeyond = 10

// Dist summarizes a latency sample: its median and the highest percentile,
// at most Want, that leaves at least minBeyond samples above it. Samples may
// be +Inf (a dropped request misses every latency limit).
type Dist struct {
	N int
	// P50 is the nearest-rank median.
	P50 float64
	// TailP is the percentile Tail reports: Want when the sample is large
	// enough, lower otherwise, and never below 50.
	TailP float64
	Tail  float64
}

// Summarize computes the Dist of samples, aiming for the want-th percentile
// (for example 99). An empty sample yields the zero Dist.
func Summarize(samples []float64, want float64) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	med := (n + 1) / 2 // nearest rank of the median, 1-based
	k := int(math.Ceil(want / 100 * float64(n)))
	k = min(k, n-minBeyond)
	if k < med {
		k = med
	}
	return Dist{
		N:     n,
		P50:   s[med-1],
		TailP: 100 * float64(k) / float64(n),
		Tail:  s[k-1],
	}
}

// Median is the middle value of xs, the mean of the two middle values when
// len(xs) is even, and 0 for an empty slice. Repetition counts in one run
// are small, so the mean of the middle pair is steadier than a rank.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
