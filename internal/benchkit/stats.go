package benchkit

// Latency-distribution helpers for the serving scenarios: percentiles and
// means over per-request samples. Pure functions of their inputs, so
// summaries built from deterministic simulations stay golden-stable.

import "sort"

// Summary holds a sorted copy of a sample set for repeated distribution
// queries: sort once, then Percentile/Mean/Min/Max in O(1)/O(log n). The
// serving metrics layer queries seven percentiles per latency series;
// building a Summary per series replaces seven copy-and-sort passes with
// one.
type Summary struct {
	sorted []float64
}

// NewSummary copies and sorts xs. The input slice is not retained or
// modified. An empty (or nil) input yields a valid Summary whose queries
// all return 0.
func NewSummary(xs []float64) *Summary {
	s := &Summary{sorted: append([]float64(nil), xs...)}
	sort.Float64s(s.sorted)
	return s
}

// Count returns the number of samples.
func (s *Summary) Count() int { return len(s.sorted) }

// Min returns the smallest sample (0 if empty).
func (s *Summary) Min() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[0]
}

// Max returns the largest sample (0 if empty).
func (s *Summary) Max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Summary) Mean() float64 { return Mean(s.sorted) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks (the common "exclusive of
// extrapolation" definition: p=0 is the min, p=100 the max). Returns 0 if
// the Summary is empty.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.sorted[n-1]
	}
	return s.sorted[lo] + frac*(s.sorted[lo+1]-s.sorted[lo])
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
