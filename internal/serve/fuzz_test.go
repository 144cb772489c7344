package serve

// Native Go fuzz targets for the workload layer's two determinism-critical
// inputs: the splitmix64 RNG (goldens depend on its stream never changing)
// and LenDist sampling (every generated length must respect its declared
// bounds, whatever the seed or parameters). Run continuously with
// `go test -fuzz=FuzzRNG ./internal/serve`; CI replays the committed seed
// corpus plus a short -fuzztime smoke per target.

import (
	"math"
	"testing"

	"mscclpp/internal/sim"
)

// FuzzRNG: the splitmix64 generator never panics, produces in-range
// variates, and is a pure function of its seed — the identical-seed ⇒
// identical-stream guarantee every golden rests on.
func FuzzRNG(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(0x9e3779b97f4a7c15))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64) {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 256; i++ {
			av := a.Uint64()
			if av != b.Uint64() {
				t.Fatalf("seed %d: streams diverged at draw %d", seed, i)
			}
		}
		r := NewRNG(seed)
		for i := 0; i < 256; i++ {
			if v := r.Float64(); v < 0 || v >= 1 || math.IsNaN(v) {
				t.Fatalf("seed %d: Float64 = %g out of [0, 1)", seed, v)
			}
			if e := r.Exp(100); e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("seed %d: Exp(100) = %g", seed, e)
			}
			if n := r.Norm(); math.IsNaN(n) {
				t.Fatalf("seed %d: Norm is NaN", seed)
			}
			if v := r.Intn(7); v < 0 || v >= 7 {
				t.Fatalf("seed %d: Intn(7) = %d", seed, v)
			}
		}
		// Mix64 is a bijection's forward map: zero inputs still avalanche.
		if Mix64(seed) == Mix64(seed+1) {
			t.Fatalf("Mix64 collided on adjacent inputs at %d", seed)
		}
	})
}

// FuzzScalePolicy: whatever signal stream an autoscale policy is fed —
// hostile utilizations and attainments included — the driver-side clamp
// of its decision never leaves [1, max], and no registered policy
// panics. This is the fleet-safety contract an elastic RunRouted relies on:
// arbitrary ScaleSignals must never produce a negative or above-max
// replica count.
func FuzzScalePolicy(f *testing.F) {
	f.Add(int64(0), 2, 0, 1, 1, 4, int64(0), 0.5, 0.99, int64(10))
	f.Add(int64(15_000_000_000), 4, 1, 1, 1, 8, int64(120_000), 1.2, 0.0, int64(0))
	f.Add(int64(-5), -3, -1, -2, 0, 0, int64(-77), math.Inf(1), math.NaN(), int64(-1))
	f.Add(int64(1)<<60, 1<<30, 1<<20, 1<<10, 7, 3, int64(1)<<62, -7.5, 123.0, int64(1)<<40)
	f.Fuzz(func(t *testing.T, timeNs int64, active, prov, draining, min, max int,
		queued int64, util, att float64, completed int64) {
		sig := ScaleSignals{
			TimeNs:         sim.Time(timeNs),
			Active:         active,
			Provisioning:   prov,
			Draining:       draining,
			Min:            min,
			Max:            max,
			QueuedRequests: int(queued),
			InFlightTokens: queued,
			Utilization:    util,
			Attainment:     att,
			Completed:      completed,
		}
		for _, name := range ScalePolicyNames() {
			pol, err := ScalePolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Feed the same hostile sample repeatedly: stateful controllers
			// (the PID integral) must stay clamped under accumulation too.
			for i := 0; i < 8; i++ {
				got := clampReplicas(pol.Desired(sig), max)
				lo, hi := 1, max
				if hi < lo {
					hi = lo
				}
				if got < lo || got > hi {
					t.Fatalf("%s: clamped decision %d outside [%d, %d] for %+v", name, got, lo, hi, sig)
				}
			}
		}
	})
}

// FuzzLenDist: every length distribution stays within its declared bounds
// and is deterministic in the RNG seed, across fuzzed parameters.
func FuzzLenDist(f *testing.F) {
	f.Add(uint64(1), 16, 256, 64.0, 0.5)
	f.Add(uint64(2026), 1, 1, 1.0, 0.0)
	f.Add(uint64(7), 100, 4096, 512.0, 3.0)
	f.Add(^uint64(0), 2, 3, 2.5, 10.0)
	f.Fuzz(func(t *testing.T, seed uint64, min, max int, median, sigma float64) {
		// Sanitize to the constructors' documented domains; the fuzzer's
		// job here is the sampling paths, not the panic guards (those are
		// covered by unit tests).
		if min < 1 || max < min || max > 1<<20 {
			t.Skip()
		}
		if !(median >= 1) || median > 1<<20 || math.IsNaN(sigma) || sigma < 0 || sigma > 20 {
			t.Skip()
		}

		dists := []struct {
			name   string
			d      LenDist
			lo, hi int
		}{
			{"fixed", FixedLen(max), max, max},
			{"uniform", UniformLen(min, max), min, max},
			{"lognormal", LogNormalLen(median, sigma, max), 1, max},
		}
		for _, tc := range dists {
			r1, r2 := NewRNG(seed), NewRNG(seed)
			for i := 0; i < 64; i++ {
				n := tc.d(r1)
				if n < tc.lo || n > tc.hi {
					t.Fatalf("%s draw %d: %d outside [%d, %d] (seed %d)", tc.name, i, n, tc.lo, tc.hi, seed)
				}
				if n2 := tc.d(r2); n2 != n {
					t.Fatalf("%s draw %d: same seed produced %d then %d", tc.name, i, n, n2)
				}
			}
		}
	})
}
