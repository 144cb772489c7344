package serve

// Stream-vs-exact equivalence: the streaming metrics mode must agree with
// the row-retaining mode on everything that is exact by construction
// (counts, makespan, throughput, SLO verdicts — all taken on exact
// virtual-time integers in both modes) and stay within the sketch's
// documented relative rank-error everywhere quantiles are involved.

import (
	"math"
	"strings"
	"testing"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/sim"
)

// streamTestWorkload is the shared two-tier workload of the equivalence
// tests, with one oversized request that prepare rejects up front.
func streamTestWorkload() Workload {
	wl := Poisson(7101, 400, 80, LogNormalLen(256, 0.6, 1024), LogNormalLen(32, 0.5, 96))
	wl = WithPriorities(wl, 7102, 0.7)
	// An inadmissible request mid-trace: prompt alone overflows the KV
	// budget, so both modes must account it as a rejection.
	wl.Requests[200].PromptLen = 1 << 24
	return wl
}

func streamTestConfig(metrics MetricsMode, slo SLO, tiers map[int]SLO) Config {
	cfg := testConfig()
	cfg.MaxBatch = 16
	cfg.KVCapacityBytes = 1 << 30
	cfg.ChunkTokens = 512
	cfg.Metrics = metrics
	cfg.SLO = slo
	cfg.TierSLOs = tiers
	return cfg
}

// pickSLO derives a discriminating objective (near the exact run's median
// TTFT, so attainment is neither 0 nor 1) from an exact-mode run.
func pickSLO(t *testing.T, wl Workload) SLO {
	t.Helper()
	res, err := runSingle(streamTestConfig(MetricsExact, SLO{}, nil), wl)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summarize(SLO{})
	return SLO{
		MaxTTFT: sim.Duration(s.TTFTp50ms * 1e6),
		MaxTPOT: sim.Duration(s.TPOTp50ms * 2e6),
	}
}

// wantClose asserts the streamed quantile agrees with the exact one. The
// sketch guarantees alpha relative error against the order statistics;
// the exact path additionally interpolates between adjacent samples, so
// on small per-tier populations the gap between neighboring order stats
// (not a sketch artifact — benchkit's sketch tests pin the strict bound)
// widens the comparison. 3*alpha comfortably covers both terms for these
// fixed seeds.
func wantClose(t *testing.T, name string, stream, exact float64) {
	t.Helper()
	tol := 3 * benchkit.DefaultSketchAlpha
	if math.Abs(stream-exact) > tol*math.Abs(exact)+1e-9 {
		t.Errorf("%s: streamed %.6g vs exact %.6g exceeds %.2g%% relative error", name, stream, exact, 100*tol)
	}
}

// compareSummaries checks the exact-by-construction fields for equality
// and the sketch-derived quantiles for bounded error.
func compareSummaries(t *testing.T, stream, exact Summary) {
	t.Helper()
	if stream.Requests != exact.Requests || stream.Rejected != exact.Rejected ||
		stream.Iterations != exact.Iterations {
		t.Errorf("counters differ: stream %+v exact %+v", stream, exact)
	}
	if stream.MakespanS != exact.MakespanS {
		t.Errorf("makespan: stream %g exact %g", stream.MakespanS, exact.MakespanS)
	}
	if stream.ThroughputTokS != exact.ThroughputTokS || stream.GoodputTokS != exact.GoodputTokS {
		t.Errorf("token rates differ: stream %g/%g exact %g/%g",
			stream.ThroughputTokS, stream.GoodputTokS, exact.ThroughputTokS, exact.GoodputTokS)
	}
	if stream.SLOAttainment != exact.SLOAttainment {
		t.Errorf("slo attainment: stream %g exact %g", stream.SLOAttainment, exact.SLOAttainment)
	}
	wantClose(t, "ttft p50", stream.TTFTp50ms, exact.TTFTp50ms)
	wantClose(t, "ttft p90", stream.TTFTp90ms, exact.TTFTp90ms)
	wantClose(t, "ttft p99", stream.TTFTp99ms, exact.TTFTp99ms)
	wantClose(t, "tpot p50", stream.TPOTp50ms, exact.TPOTp50ms)
	wantClose(t, "tpot p99", stream.TPOTp99ms, exact.TPOTp99ms)
	wantClose(t, "e2e p50", stream.E2Ep50ms, exact.E2Ep50ms)
	wantClose(t, "e2e p99", stream.E2Ep99ms, exact.E2Ep99ms)
	if len(stream.ByTier) != len(exact.ByTier) {
		t.Fatalf("tier count: stream %d exact %d", len(stream.ByTier), len(exact.ByTier))
	}
	for i, st := range stream.ByTier {
		et := exact.ByTier[i]
		if st.Priority != et.Priority || st.Requests != et.Requests || st.Rejected != et.Rejected {
			t.Errorf("tier %d counters: stream %+v exact %+v", i, st, et)
		}
		if st.SLOAttainment != et.SLOAttainment || st.GoodputTokS != et.GoodputTokS {
			t.Errorf("tier %d rates: stream %g/%g exact %g/%g",
				i, st.SLOAttainment, st.GoodputTokS, et.SLOAttainment, et.GoodputTokS)
		}
		wantClose(t, "tier ttft p50", st.TTFTp50ms, et.TTFTp50ms)
		wantClose(t, "tier ttft p99", st.TTFTp99ms, et.TTFTp99ms)
	}
}

func TestStreamMatchesExact(t *testing.T) {
	wl := streamTestWorkload()
	slo := pickSLO(t, wl)
	tiers := map[int]SLO{1: {MaxTTFT: 4 * slo.MaxTTFT, MaxTPOT: 4 * slo.MaxTPOT}}

	streamRes, err := runSingle(streamTestConfig(MetricsStream, slo, tiers), wl)
	if err != nil {
		t.Fatal(err)
	}
	exactRes, err := runSingle(streamTestConfig(MetricsExact, slo, tiers), wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamRes.PerRequest) != 0 {
		t.Fatalf("streaming result retained %d per-request rows", len(streamRes.PerRequest))
	}
	if streamRes.Stream == nil {
		t.Fatal("streaming result has no StreamStats")
	}
	compareSummaries(t, streamRes.SummarizeTiered(slo, tiers), exactRes.SummarizeTiered(slo, tiers))

	// And the untiered path: a config with no per-tier overrides summarizes
	// through plain Summarize.
	flatStream, err := runSingle(streamTestConfig(MetricsStream, slo, nil), wl)
	if err != nil {
		t.Fatal(err)
	}
	compareSummaries(t, flatStream.Summarize(slo), exactRes.Summarize(slo))
}

// TestExactRefoldsUnderQuerySLOs: an exact Result judges its rows when it
// is summarized, not when it ran. One exact run with no configured SLO,
// summarized under two different objectives, must match two streaming
// runs configured with those objectives.
func TestExactRefoldsUnderQuerySLOs(t *testing.T) {
	wl := streamTestWorkload()
	exact, err := runSingle(streamTestConfig(MetricsExact, SLO{}, nil), wl)
	if err != nil {
		t.Fatal(err)
	}
	tight := pickSLO(t, wl)
	loose := SLO{MaxTTFT: 4 * tight.MaxTTFT, MaxTPOT: 4 * tight.MaxTPOT}
	tiers := map[int]SLO{1: loose}
	var attained []float64
	for _, slo := range []SLO{tight, loose} {
		stream, err := runSingle(streamTestConfig(MetricsStream, slo, tiers), wl)
		if err != nil {
			t.Fatal(err)
		}
		got := exact.SummarizeTiered(slo, tiers)
		compareSummaries(t, stream.SummarizeTiered(slo, tiers), got)
		attained = append(attained, got.SLOAttainment)
	}
	if attained[0] >= attained[1] {
		t.Errorf("attainment %g under the tight SLO vs %g under the loose one: the query SLO was not applied",
			attained[0], attained[1])
	}
}

// TestStreamRoutedMatchesExact checks the merge path: per-replica stream
// states (plus the synthetic rejected part) pooled by MergeResults must
// summarize like the pooled exact rows.
func TestStreamRoutedMatchesExact(t *testing.T) {
	wl := streamTestWorkload()
	slo := pickSLO(t, wl)
	tiers := map[int]SLO{1: {MaxTTFT: 4 * slo.MaxTTFT, MaxTPOT: 4 * slo.MaxTPOT}}

	run := func(metrics MetricsMode) *RoutedResult {
		res, err := RunRouted(RouterConfig{
			Replicas: 3,
			Policy:   NewJSQ(),
			Replica:  streamTestConfig(metrics, slo, tiers),
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stream, exact := run(MetricsStream), run(MetricsExact)
	if len(stream.Merged.PerRequest) != 0 {
		t.Fatalf("streaming merged result retained %d rows", len(stream.Merged.PerRequest))
	}
	if stream.Merged.Rejected != exact.Merged.Rejected || stream.Merged.Rejected == 0 {
		t.Errorf("rejected: stream %d exact %d (want equal and nonzero)",
			stream.Merged.Rejected, exact.Merged.Rejected)
	}
	compareSummaries(t, stream.Merged.SummarizeTiered(slo, tiers), exact.Merged.SummarizeTiered(slo, tiers))
}

// TestStreamGuards: a streaming result judged its SLOs at completion
// time, so re-summarizing under different objectives, or pooling with a
// differently-judged part, must fail loudly instead of silently lying.
func TestStreamGuards(t *testing.T) {
	wantPanic := func(name, substr string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
				t.Errorf("%s: panic %v does not mention %q", name, r, substr)
			}
		}()
		fn()
	}

	slo := SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond}
	wl := Poisson(7201, 50, 100, FixedLen(128), FixedLen(16))
	res, err := runSingle(streamTestConfig(MetricsStream, slo, nil), wl)
	if err != nil {
		t.Fatal(err)
	}
	wantPanic("re-summarize", "judged against", func() {
		res.Summarize(SLO{MaxTTFT: 2 * sim.Second})
	})
	wantPanic("mismatched merge", "different SLOs", func() {
		other := &Result{Stream: newStreamStats(MetricsStream, SLO{MaxTTFT: 3 * sim.Second}, nil)}
		MergeResults(res, other)
	})
	exact, err := runSingle(streamTestConfig(MetricsExact, slo, nil), wl)
	if err != nil {
		t.Fatal(err)
	}
	wantPanic("mixed-mode merge", "mixing", func() {
		MergeResults(res, exact)
	})
}
