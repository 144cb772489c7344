package scenario

// serve-planetary: the million-request artifact. Eight regional cells —
// each three routed replicas behind JSQ — serve independently seeded
// diurnal request streams (sinusoidal day/night load, two priority
// tiers), 1,024,000 requests in total across a multi-hour virtual day.
// Every replica records in the default streaming-metrics mode, so memory
// stays constant in the request count: per-request rows are never
// retained, completions fold into per-tier quantile sketches at
// completion time and the planet-wide view is a sketch merge, not a row
// concatenation. The artifact is golden-gated like every other scenario;
// the companion CI job (planetary-smoke) additionally pins bytes/request.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Planetary cell geometry: total requests must clear the million-request
// bar with every cell at a load its three replicas can actually sustain
// (peak 8 req/s per replica; the probe point where a single replica still
// meets the SLO on every request).
const (
	planetaryCells       = 8
	planetaryPerCell     = 128_000
	planetaryPeakRate    = 24.0 // cluster req/s per cell at the diurnal peak
	planetaryTroughFrac  = 0.25 // night load as a fraction of peak
	planetaryPeriod      = 2 * 3600 * sim.Second
	planetaryInteractive = 0.7 // fraction of traffic in the interactive tier
)

// batchSLO is the relaxed objective of the background (priority-1) tier.
var batchSLO = serve.SLO{MaxTTFT: 20 * sim.Second, MaxTPOT: 400 * sim.Millisecond}

func servePlanetary(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	timer := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	tierSLOs := map[int]serve.SLO{1: batchSLO}
	replica := serve.Config{
		Env:             envFn(),
		Model:           inference.Llama3x70B(8),
		AR:              timer.Time,
		MaxBatch:        32,
		KVCapacityBytes: 4 << 30,
		ChunkTokens:     512,
		// Streaming metrics (the zero value, spelled out because it is the
		// point of this artifact): SLOs are judged at completion time, so
		// they are part of the replica configuration.
		Metrics:  serve.MetricsStream,
		SLO:      serveSLO,
		TierSLOs: tierSLOs,
	}

	r.Printf("\nPlanetary serving: %d regional cells x 3 replicas (JSQ), %d diurnal requests total\n",
		planetaryCells, planetaryCells*planetaryPerCell)
	r.Printf("  (Llama3-70B TP=8 per replica, peak %.3g req/s per cell, %.2gx night load, 2h cycle, 70%% interactive)\n",
		planetaryPeakRate, planetaryTroughFrac)
	r.Printf("  %-10s %9s %9s %9s %9s %9s %7s\n",
		"region", "requests", "ttft p50", "ttft p99", "e2e p99", "goodput", "slo%")

	results := make([]*serve.RoutedResult, planetaryCells)
	err := benchkit.Parallel(planetaryCells, func(i int) error {
		// Each region is an independent shard of the planetary day: its
		// own seed, its own diurnal cycle, the shared replica config.
		wl := serve.Diurnal(41000+uint64(i), planetaryPerCell, planetaryPeakRate, planetaryTroughFrac,
			planetaryPeriod, serve.LogNormalLen(384, 0.6, 1024), serve.LogNormalLen(48, 0.5, 128))
		wl = serve.WithPriorities(wl, 42000+uint64(i), planetaryInteractive)
		res, err := serve.RunRouted(serve.RouterConfig{Replicas: 3, Policy: serve.NewJSQ(), Replica: replica}, wl)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}

	parts := make([]*serve.Result, planetaryCells)
	var total int
	for i, res := range results {
		parts[i] = res.Merged
		s := res.Merged.SummarizeTiered(serveSLO, tierSLOs)
		total += s.Requests
		region := fmt.Sprintf("region-%d", i)
		r.Printf("  %-10s %9d %9.1f %9.1f %9.1f %9.0f %6.1f%%\n",
			region, s.Requests, s.TTFTp50ms, s.TTFTp99ms, s.E2Ep99ms, s.GoodputTokS, 100*s.SLOAttainment)
		r.Metric(region+" slo_attainment", "frac", s.SLOAttainment)
	}
	// The artifact's contract: this is the million-request run. If cell
	// geometry is ever edited below the bar, fail the scenario itself
	// rather than silently shrinking the claim.
	if total < 1_000_000 {
		return fmt.Errorf("serve-planetary completed %d requests, want >= 1000000", total)
	}

	planet := serve.MergeResults(parts...)
	s := planet.SummarizeTiered(serveSLO, tierSLOs)
	r.Printf("  %-10s %9d %9.1f %9.1f %9.1f %9.0f %6.1f%%\n",
		"planet", s.Requests, s.TTFTp50ms, s.TTFTp99ms, s.E2Ep99ms, s.GoodputTokS, 100*s.SLOAttainment)
	r.Println("\n  Per-tier (planet-wide, streamed sketches):")
	r.Printf("  %-12s %9s %9s %9s %9s %7s\n", "tier", "requests", "ttft p50", "ttft p99", "goodput", "slo%")
	names := map[int]string{0: "interactive", 1: "batch"}
	for _, t := range s.ByTier {
		r.Printf("  %-12s %9d %9.1f %9.1f %9.0f %6.1f%%\n",
			names[t.Priority], t.Requests, t.TTFTp50ms, t.TTFTp99ms, t.GoodputTokS, 100*t.SLOAttainment)
		r.Metric(fmt.Sprintf("tier%d slo_attainment", t.Priority), "frac", t.SLOAttainment)
		r.Metric(fmt.Sprintf("tier%d ttft_p99", t.Priority), "ms", t.TTFTp99ms)
	}
	r.Metric("requests", "count", float64(s.Requests))
	r.Metric("ttft_p50", "ms", s.TTFTp50ms)
	r.Metric("ttft_p99", "ms", s.TTFTp99ms)
	r.Metric("e2e_p99", "ms", s.E2Ep99ms)
	r.Metric("goodput", "tok/s", s.GoodputTokS)
	r.Metric("slo_attainment", "frac", s.SLOAttainment)
	return nil
}
