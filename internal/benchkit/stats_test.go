package benchkit

// Property tests for the distribution helpers: the router's cross-replica
// aggregation leans on Summary percentiles and Mean being order-free,
// bounded and non-mutating, so those invariants are pinned here over
// seeded random sample sets rather than hand-picked examples.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// percentile is the one-shot query the properties are stated over.
func percentile(xs []float64, p float64) float64 { return NewSummary(xs).Percentile(p) }

// randomSamples draws n samples from one of several shapes (uniform,
// heavy-tailed, constant, negative) so the properties are exercised off
// the happy path.
func randomSamples(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	switch rng.Intn(4) {
	case 0:
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
	case 1: // heavy tail
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64() * 3)
		}
	case 2: // constant
		c := rng.Float64()
		for i := range xs {
			xs[i] = c
		}
	default: // signed
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
	}
	return xs
}

func TestPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := randomSamples(rng, 1+rng.Intn(50))
		orig := append([]float64(nil), xs...)

		min, max := xs[0], xs[0]
		for _, x := range xs {
			min = math.Min(min, x)
			max = math.Max(max, x)
		}

		// Bounded by min/max at every p, monotone in p, and exact at the
		// extremes (including out-of-range p, which clamps).
		prev := math.Inf(-1)
		for _, p := range []float64{-5, 0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100, 120} {
			v := percentile(xs, p)
			if v < min || v > max {
				t.Fatalf("trial %d: P%g = %g outside [%g, %g]", trial, p, v, min, max)
			}
			if v < prev {
				t.Fatalf("trial %d: P%g = %g < previous percentile %g — not monotone in p", trial, p, v, prev)
			}
			prev = v
		}
		if percentile(xs, 0) != min || percentile(xs, 100) != max {
			t.Fatalf("trial %d: P0/P100 = %g/%g, want min/max %g/%g",
				trial, percentile(xs, 0), percentile(xs, 100), min, max)
		}

		// Permutation-invariant: shuffling the samples changes nothing
		// (Summary sorts, so equality is exact).
		shuffled := append([]float64(nil), xs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, p := range []float64{0, 17, 50, 83.5, 99, 100} {
			if percentile(xs, p) != percentile(shuffled, p) {
				t.Fatalf("trial %d: P%g not permutation-invariant", trial, p)
			}
		}

		// Mean is bounded (up to summation rounding) and
		// permutation-invariant up to rounding.
		m, ms := Mean(xs), Mean(shuffled)
		slack := 1e-12 * math.Max(1, math.Max(math.Abs(min), math.Abs(max)))
		if m < min-slack || m > max+slack {
			t.Fatalf("trial %d: mean %g outside [%g, %g]", trial, m, min, max)
		}
		if diff := math.Abs(m - ms); diff > 1e-9*math.Max(1, math.Abs(m)) {
			t.Fatalf("trial %d: mean not permutation-invariant: %g vs %g", trial, m, ms)
		}

		// The input slice is never mutated by Percentile, Mean or Summary.
		NewSummary(xs)
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("trial %d: input slice mutated at %d", trial, i)
			}
		}
	}
}

// TestSummaryMatchesPercentile: Summary.Percentile must answer the
// closest-ranks linear interpolation its doc defines, computed here
// independently over a sorted copy — goldens depend on the definition not
// drifting.
func TestSummaryMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		xs := randomSamples(rng, 1+rng.Intn(40))
		s := NewSummary(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for p := float64(0); p <= 100; p += 0.5 {
			rank := p / 100 * float64(len(sorted)-1)
			lo := int(rank)
			want := sorted[lo]
			if lo+1 < len(sorted) {
				want += (rank - float64(lo)) * (sorted[lo+1] - sorted[lo])
			}
			if got := s.Percentile(p); got != want {
				t.Fatalf("trial %d: Summary P%g = %g, reference = %g", trial, p, got, want)
			}
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min, max = math.Min(min, x), math.Max(max, x)
		}
		if s.Min() != min || s.Max() != max || s.Count() != len(xs) {
			t.Fatalf("trial %d: Summary min/max/count %g/%g/%d, want %g/%g/%d",
				trial, s.Min(), s.Max(), s.Count(), min, max, len(xs))
		}
		if diff := math.Abs(s.Mean() - Mean(xs)); diff > 1e-9*math.Max(1, math.Abs(s.Mean())) {
			t.Fatalf("trial %d: Summary mean %g vs Mean %g", trial, s.Mean(), Mean(xs))
		}
	}
}

func TestStatsEmptyAndSingle(t *testing.T) {
	if percentile(nil, 50) != 0 || Mean(nil) != 0 {
		t.Error("empty-slice percentile/Mean not 0")
	}
	s := NewSummary(nil)
	if s.Count() != 0 || s.Percentile(50) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty Summary not all-zero")
	}
	one := []float64{7.5}
	for _, p := range []float64{0, 33, 100} {
		if percentile(one, p) != 7.5 {
			t.Errorf("single-sample P%g = %g, want 7.5", p, percentile(one, p))
		}
	}
}
