package serve

// Scheduler-driver regression pins. The scheduler once had two drivers: a
// blocking sim.Proc and the event-callback state machine that replaced
// it. Before the Proc driver was deleted, every row below was run under
// both, the two results were confirmed JSON-identical, and their digest
// was committed here. The remaining driver must keep reproducing them:
// every request's full lifecycle record — admission, first-token and
// completion instants, preemption and swap accounting — for a single
// replica and for every deployment shape (a fixed fleet, disaggregated
// prefill/decode pools with their KV-handoff transits, and an elastic
// fleet's drains). The rows run in exact metrics mode, plus one streamed
// summary.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"mscclpp/internal/sim"
)

// driverConfig is the shared replica config, paged so the pins also
// cover the preemption/swap wake-ups (notify from At-callbacks).
func driverConfig() Config {
	cfg := testConfig()
	cfg.MaxBatch = 8
	cfg.KVCapacityBytes = 16 << 20
	cfg.ChunkTokens = 256
	cfg.KVPolicy = KVPaged
	cfg.Preempt = PreemptSwap
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

// TestDriverEquivalenceUnified pins one replica: its own result and the
// merged view, which adds the up-front rejections.
func TestDriverEquivalenceUnified(t *testing.T) {
	res, err := RunRouted(RouterConfig{Replicas: 1, Replica: driverConfig()}, driverWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Preemptions == 0 {
		t.Error("workload triggered no preemptions; the row lost its teeth")
	}
	pinDigest(t, "bdbef25e3c71a4df", res.PerReplica[0], res.Merged)
}

// TestDriverEquivalenceRouted pins every deployment shape: a fixed
// unified fleet, a 2-prefill/2-decode deployment with its KV-handoff
// transits, and a churning elastic fleet whose drains re-route queued
// requests mid-run.
func TestDriverEquivalenceRouted(t *testing.T) {
	wl := driverWorkload()
	for _, tc := range []struct {
		name, digest string
		rc           RouterConfig
	}{
		{"unified", "1157384a6554f0ca", RouterConfig{Replicas: 3, Policy: NewJSQ()}},
		{"2p2d", "b21e7bdd7afe9b64", RouterConfig{Replicas: 2, Decode: 2}},
		{"scaled", "3c026be917f1b34c", RouterConfig{Replicas: 2, Scale: &Scale{Policy: &flipPolicy{}, Max: 3,
			Interval: 500 * sim.Millisecond, ProvisionDelay: sim.Second}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := tc.rc
			rc.Replica = driverConfig()
			res, err := RunRouted(rc, wl)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "scaled" && (res.ScaleUps == 0 || len(res.Drains) == 0) {
				t.Errorf("elastic row never scaled (%d ups, %d drains); the row lost its teeth", res.ScaleUps, len(res.Drains))
			}
			pinDigest(t, tc.digest, res)
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
		res, err := RunRouted(RouterConfig{Replicas: 3, Replica: driverConfig(), Scale: sc}, wl)
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

// TestDriverEquivalenceStream pins the streamed summary of one replica:
// sketch-derived quantiles included, since identical completion streams
// fold into identical buckets.
func TestDriverEquivalenceStream(t *testing.T) {
	slo := SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond}
	cfg := driverConfig()
	cfg.Metrics = MetricsStream
	cfg.SLO = slo
	res, err := RunRouted(RouterConfig{Replicas: 1, Replica: cfg}, driverWorkload())
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "38a24f7eb0983c97", res.Merged.Summarize(slo))
}

// TestCheckDrainedStuckReplica: with no goroutine behind a replica, the
// engine drains quietly around a scheduler that can never finish — here
// one whose arrival stream is never closed. checkDrained is the guard
// that turns that into an error.
func TestCheckDrainedStuckReplica(t *testing.T) {
	eng := sim.NewEngine()
	s, err := newScheduler(eng, "stuck", testConfig(), roleUnified)
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Submit(Request{ID: 1, PromptLen: 64, OutputLen: 4}) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := checkDrained(s); err == nil || !strings.Contains(err.Error(), "never finished") {
		t.Errorf("checkDrained = %v, want a never-finished error", err)
	}
}
