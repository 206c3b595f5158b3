package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a median may be reported next to.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, its value is one or two outliers rather than a tail.
const minBeyond = 10

// summary is a timing distribution as the benchmark reports it: the
// median, the highest percentile with at least minBeyond samples beyond
// it (tailPct 0 when there is none), and the sample count.
type summary struct {
	n       int
	median  float64
	tailPct float64
	tail    float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.median = median(sorted)
	if p, ok := tailPercentile(len(sorted)); ok {
		s.tailPct = p
		s.tail = nearestRank(sorted, p)
	}
	return s
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples strictly above its nearest-rank position.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps p99.9 of 10000 at rank 9990, not 9991: 99.9 has
	// no exact binary form.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// nearestRank returns percentile p of an ascending, non-empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median of an ascending slice; the mean of the middle pair when even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

// passMedian is the median over passes of one per-pass quantity.
func passMedian[P any](passes []P, f func(P) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return medianOf(xs)
}

// format renders the summary as "p50 <v> <unit>, p<q> <v> <unit>, n=<n>".
func (s summary) format(unit string) string {
	if s.n == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.4g %s", s.median, unit)
	switch {
	case s.tailPct > 50:
		out += fmt.Sprintf(", p%g %.4g %s", s.tailPct, s.tail, unit)
	case s.tailPct == 50:
		out += fmt.Sprintf(", no percentile above p50 has %d samples beyond it", minBeyond)
	default:
		out += fmt.Sprintf(", no percentile has %d samples beyond it", minBeyond)
	}
	return out + fmt.Sprintf(", n=%d", s.n)
}

// meanOpMillis is job_ms_p50 for the workloads whose passes run a fixed
// mix of unequal operations (kernel runs, predictions): the mean
// operation latency of the median pass. The plain median over such a
// mix lands wherever the mix is sparse, and which kernel that is
// changes with the seed; the per-operation distribution is still
// printed alongside.
func meanOpMillis(passSeconds float64, opsPerPass int) float64 {
	return passSeconds * 1000 / float64(opsPerPass)
}
