package benchkit

// Sketch is a mergeable streaming quantile sketch: the bounded-memory
// counterpart of Summary for runs too large to retain every sample. It is
// a DDSketch-style logarithmic histogram — samples land in geometric
// buckets of ratio gamma = (1+alpha)/(1-alpha), so any quantile's value is
// reported with relative error at most alpha regardless of how many
// samples were added. Count, Mean, Min and Max are exact.
//
// Merging is bucket-wise integer addition, so Merge is exactly
// associative, commutative and deterministic for every quantile query
// (Mean is a float accumulation and may differ in the last ulp across
// merge orders). That is the property the serving layer's cross-replica
// metric pooling depends on: streaming per-replica sketches merge into
// the same cluster view no matter how the replicas are grouped.

import (
	"fmt"
	"math"
)

// DefaultSketchAlpha is the relative-accuracy bound NewSketch(0) uses: 1%
// relative value error on every quantile, which is far below the digit
// precision any latency table prints.
const DefaultSketchAlpha = 0.01

// sketchMinValue is the smallest magnitude tracked logarithmically; samples
// below it (including zero and any negative input) collapse into an exact
// zero bucket. One nanosecond-of-a-millisecond is far below the resolution
// of any latency series the serving layer streams.
const sketchMinValue = 1e-9

// sketchMaxBuckets bounds the bucket array. At alpha = 0.01 the full span
// from sketchMinValue to 1e26 needs ~4000 buckets, so in practice nothing
// collapses; if a pathological stream exceeds the bound, the lowest
// buckets fold together (biasing only the extreme low tail) so memory
// stays fixed.
const sketchMaxBuckets = 4096

// Sketch is a fixed-size streaming quantile summary; construct with
// NewSketch. The zero value is not usable.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	count int64   // total samples
	zero  int64   // samples below sketchMinValue
	sum   float64 // exact sum of all samples
	min   float64
	max   float64

	minKey  int     // key of buckets[0]
	buckets []int64 // counts per geometric bucket, contiguous from minKey
}

// NewSketch returns an empty sketch with the given relative-accuracy
// target (0 < alpha < 1); alpha = 0 selects DefaultSketchAlpha. Sketches
// may only merge with sketches of the same alpha.
func NewSketch(alpha float64) *Sketch {
	if alpha == 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("benchkit: NewSketch(alpha = %v), need 0 < alpha < 1", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{alpha: alpha, gamma: gamma, lnGamma: math.Log(gamma)}
}

// Alpha returns the sketch's relative-accuracy bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the exact number of samples added.
func (s *Sketch) Count() int64 { return s.count }

// Min returns the exact smallest sample (0 if empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact largest sample (0 if empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Mean returns the exact arithmetic mean (0 if empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Add records one sample.
func (s *Sketch) Add(x float64) {
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	s.sum += x
	if x < sketchMinValue {
		s.zero++
		return
	}
	s.bump(s.key(x), 1)
}

// key maps a positive sample to its geometric bucket: the smallest k with
// gamma^k >= x, so bucket k covers (gamma^(k-1), gamma^k].
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// representative is the midpoint value reported for bucket k:
// 2*gamma^k/(gamma+1), within relative alpha of every value in the bucket.
func (s *Sketch) representative(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// bump adds n to bucket k, growing the contiguous bucket window as needed
// and collapsing the lowest buckets when the window would exceed the
// fixed-size bound.
func (s *Sketch) bump(k int, n int64) {
	if len(s.buckets) == 0 {
		s.minKey = k
		s.buckets = append(s.buckets, n)
		return
	}
	if k < s.minKey {
		grow := s.minKey - k
		if grow+len(s.buckets) > sketchMaxBuckets {
			// Window full below: fold the new count into the lowest bucket.
			s.buckets[0] += n
			return
		}
		nb := make([]int64, grow+len(s.buckets), growCap(grow+len(s.buckets)))
		copy(nb[grow:], s.buckets)
		s.buckets = nb
		s.minKey = k
	} else if k >= s.minKey+len(s.buckets) {
		for len(s.buckets) <= k-s.minKey {
			s.buckets = append(s.buckets, 0)
		}
		if len(s.buckets) > sketchMaxBuckets {
			// Window full above: collapse the lowest buckets together so the
			// span shrinks back to the bound (low-tail bias only).
			drop := len(s.buckets) - sketchMaxBuckets
			var folded int64
			for i := 0; i < drop; i++ {
				folded += s.buckets[i]
			}
			s.buckets = s.buckets[drop:]
			s.minKey += drop
			s.buckets[0] += folded
		}
	}
	s.buckets[k-s.minKey] += n
}

// growCap pads bucket-window growth so repeated low-side extensions stay
// amortized O(1) instead of copying the window on every new low key.
func growCap(n int) int {
	c := n + n/2
	if c > sketchMaxBuckets {
		c = sketchMaxBuckets
	}
	if c < n {
		c = n
	}
	return c
}

// Percentile returns the p-th percentile (0 <= p <= 100) under the same
// closest-rank convention as Summary.Percentile: p=0 is the exact min,
// p=100 the exact max, and interior ranks return a bucket representative
// within relative alpha of the exact order statistic. Returns 0 if empty.
func (s *Sketch) Percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := p / 100 * float64(s.count-1)
	cum := float64(s.zero)
	if rank < cum {
		return 0
	}
	for i, c := range s.buckets {
		cum += float64(c)
		if rank < cum {
			return s.clamp(s.representative(s.minKey + i))
		}
	}
	return s.max
}

// clamp bounds a representative to the exact observed range, so quantile
// answers never step outside [Min, Max].
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Merge adds every sample of o into s (o is unchanged; merging a nil or
// empty sketch is a no-op). Panics if the two sketches were built with
// different alpha — their bucket grids would not line up.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.alpha != s.alpha {
		panic(fmt.Sprintf("benchkit: Merge of sketches with alpha %v and %v", s.alpha, o.alpha))
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.zero += o.zero
	s.sum += o.sum
	for i, c := range o.buckets {
		if c > 0 {
			s.bump(o.minKey+i, c)
		}
	}
}
