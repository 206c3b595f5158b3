// Package stats provides the small statistical and formatting helpers the
// evaluation harness uses: means, 95% confidence intervals (the paper
// reports both, §6.1), geometric means, fixed-width table rendering, and
// the bounded fan-out that runs independent measurements in parallel.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using the normal approximation (1.96·s/√n) the paper's error bars use.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}

// GeoMean returns the geometric mean of xs; all values must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Median returns the median of xs.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks, the definition telemetry histogram
// snapshots and run reports use. It returns 0 for empty input and clamps p
// into [0, 100].
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Histogram is a fixed-bucket histogram: values are counted into the
// bucket of the first upper bound that is ≥ the value, with one implicit
// overflow bucket past the last bound. Observing is allocation-free, so
// the telemetry registry can use it on hot paths.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// It panics on empty or non-ascending bounds — bucket layout is a
// programming decision, not run-time input.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: NewHistogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewHistogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// multiplying by factor — the standard layout for latency-like quantities
// spanning orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("stats: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe counts one value. It never allocates.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if h.n == 1 || v > h.max {
		h.max = v
	}
}

// Count returns the number of observed values.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observed value (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the mean of observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Counts returns a copy of the per-bucket counts (last is overflow).
func (h *Histogram) Counts() []uint64 { return append([]uint64(nil), h.counts...) }

// Percentile estimates the p-th percentile (0 ≤ p ≤ 100) from the bucket
// counts, interpolating linearly inside the bucket that holds the target
// rank. Values in the overflow bucket report the last bound (the histogram
// cannot resolve beyond it); the true min/max clamp the estimate.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + c
		if float64(next) >= rank {
			lo := h.min
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo > hi {
				lo = hi
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - float64(cum)) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			v := lo + (hi-lo)*frac
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// Table renders rows as a fixed-width text table with a header, suitable
// for the cmd/cleanbench output that mirrors the paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
