package serve

// Callback-vs-Proc timing equivalence. The scheduler daemon exists in two
// forms: the reference blocking Proc (DriverProc) and the callback state
// machine (DriverCallback, the default) that lets the engine drain
// naturally with no parked goroutines. They must be indistinguishable in
// virtual time: every request's full lifecycle record — admission
// instants, first-token instants, completion instants, preemption and
// swap accounting — has to match to the nanosecond, for every converted
// daemon (unified chunked-prefill replicas, and every deployment shape:
// routed replicas, disaggregated prefill/decode pools with their
// KV-handoff transits, and an elastic fleet's drains).
// The tests run in exact metrics mode and require JSON-identical results.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mscclpp/internal/sim"
)

// driverConfig is the shared replica config, paged so the equivalence
// also covers the preemption/swap wake-ups (notify from At-callbacks).
func driverConfig(driver DriverMode) Config {
	cfg := testConfig()
	cfg.MaxBatch = 8
	cfg.KVCapacityBytes = 16 << 20
	cfg.ChunkTokens = 256
	cfg.KVPolicy = KVPaged
	cfg.Preempt = PreemptSwap
	cfg.Driver = driver
	return cfg
}

func driverWorkload() Workload {
	wl := Bursty(7301, 300, 40, 400, 200*sim.Millisecond, 50*sim.Millisecond,
		LogNormalLen(256, 0.6, 1024), LogNormalLen(32, 0.5, 96))
	return WithPriorities(wl, 7302, 0.6)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pinDigest fails unless the JSON encodings of parts, in order, hash to
// want. It pins deployment runs that no golden covers — merged metrics,
// per-replica results, fleet timelines and handoff totals — so a driver
// refactor must reproduce them exactly, not merely replay consistently.
func pinDigest(t *testing.T, want string, parts ...any) {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(mustJSON(t, p)))
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Errorf("run digest %s, want %s: merged metrics, per-replica results, fleet timeline or handoff totals changed", got, want)
	}
}

func TestDriverEquivalenceUnified(t *testing.T) {
	wl := driverWorkload()
	run := func(d DriverMode) *Result {
		res, err := Run(driverConfig(d), wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cb, proc := run(DriverCallback), run(DriverProc)
	if len(cb.Preempts) == 0 {
		t.Error("workload triggered no preemptions; equivalence test lost its teeth")
	}
	if got, want := mustJSON(t, cb), mustJSON(t, proc); got != want {
		t.Errorf("callback and proc drivers disagree on the unified replica:\ncallback: %.400s\nproc:     %.400s", got, want)
	}
}

// TestDriverEquivalenceRouted runs every deployment shape under both
// drivers: a fixed unified fleet, a 2-prefill/2-decode deployment with
// its KV-handoff transits, and a churning elastic fleet whose drains
// re-route queued requests mid-run.
func TestDriverEquivalenceRouted(t *testing.T) {
	wl := driverWorkload()
	for _, tc := range []struct {
		name string
		rc   func() RouterConfig
	}{
		{"unified", func() RouterConfig { return RouterConfig{Replicas: 3, Policy: NewJSQ()} }},
		{"2p2d", func() RouterConfig { return RouterConfig{Replicas: 2, Decode: 2} }},
		{"scaled", func() RouterConfig {
			return RouterConfig{Replicas: 2, Scale: &Scale{Policy: &flipPolicy{}, Max: 3,
				Interval: 500 * sim.Millisecond, ProvisionDelay: sim.Second}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(d DriverMode) *RoutedResult {
				rc := tc.rc()
				rc.Replica = driverConfig(d)
				res, err := RunRouted(rc, wl)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cb, proc := run(DriverCallback), run(DriverProc)
			if tc.name == "scaled" && (cb.ScaleUps == 0 || len(cb.Drains) == 0) {
				t.Errorf("elastic row never scaled (%d ups, %d drains); the row lost its teeth", cb.ScaleUps, len(cb.Drains))
			}
			if got, want := mustJSON(t, cb), mustJSON(t, proc); got != want {
				t.Errorf("callback and proc drivers disagree:\ncallback: %.400s\nproc:     %.400s", got, want)
			}
		})
	}
}

// TestStaticScaleReducesToFixed: a control loop that samples but never
// actuates — the static policy pinned at the initial fleet size — must
// leave every replica's metrics exactly as the fixed fleet's. The tick
// only observes.
func TestStaticScaleReducesToFixed(t *testing.T) {
	wl := driverWorkload()
	run := func(sc *Scale) *RoutedResult {
		res, err := RunRouted(RouterConfig{Replicas: 3, Replica: driverConfig(DriverCallback), Scale: sc}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := run(nil)
	scaled := run(&Scale{Policy: NewStaticScale(), Max: 3, Interval: 100 * sim.Millisecond})
	if len(scaled.Samples) == 0 || scaled.ScaleUps+scaled.ScaleDowns != 0 {
		t.Fatalf("static loop sampled %d times and actuated %d times; want samples and no actuation",
			len(scaled.Samples), scaled.ScaleUps+scaled.ScaleDowns)
	}
	if len(fixed.Samples) != 0 {
		t.Errorf("fixed fleet recorded %d control samples", len(fixed.Samples))
	}
	if got, want := mustJSON(t, scaled.Merged), mustJSON(t, fixed.Merged); got != want {
		t.Errorf("static scale changed the merged result:\nscaled: %.400s\nfixed:  %.400s", got, want)
	}
	if got, want := mustJSON(t, scaled.PerReplica), mustJSON(t, fixed.PerReplica); got != want {
		t.Errorf("static scale changed per-replica results:\nscaled: %.400s\nfixed:  %.400s", got, want)
	}
}

// TestDriverEquivalenceStream: same check in streaming mode — summaries
// (sketch-derived quantiles included: identical completion streams fold
// into identical buckets) must match exactly across drivers.
func TestDriverEquivalenceStream(t *testing.T) {
	wl := driverWorkload()
	slo := SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond}
	run := func(d DriverMode) Summary {
		cfg := driverConfig(d)
		cfg.Metrics = MetricsStream
		cfg.SLO = slo
		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res.Summarize(slo)
	}
	if got, want := mustJSON(t, run(DriverCallback)), mustJSON(t, run(DriverProc)); got != want {
		t.Errorf("callback and proc drivers disagree on streamed summaries:\ncallback: %s\nproc: %s", got, want)
	}
}
