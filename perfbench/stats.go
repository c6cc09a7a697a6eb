package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for the percentile to be trusted.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs without
// modifying it. It returns NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-quantile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples that lie strictly past the nearest-rank
// p-quantile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// checkTail rejects a latency series whose p-quantile has fewer than
// minBeyond samples beyond it.
func checkTail(name string, n int, p float64) error {
	if b := beyond(n, p); b < minBeyond {
		return fmt.Errorf("%s: %d samples leave %d beyond p%g, need at least %d", name, n, b, 100*p, minBeyond)
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interquartileMean averages the middle half of xs: it drops the lowest and
// highest quarter (rounded down) and returns the mean of the rest, or NaN
// when xs is empty. Per-pass latencies on a shared host are often bimodal,
// where the median flips between modes and the IQM does not.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// share returns 100·part/whole, or 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// ratio returns part/whole, or 0 when whole is 0.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
