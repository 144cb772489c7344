package scenario

// The serving artifacts: traffic-driven continuous-batching simulations
// (internal/serve) layered over the simulated collectives. These go beyond
// the paper's single-step decode/prefill comparisons (Figures 11-12) to
// the regime the paper motivates — serving sustained request traffic — and
// report TTFT/TPOT tails and goodput under SLOs per communication backend.

import (
	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// serveSLO is the latency objective shared by the serving artifacts:
// first token within 2 s, steady decode under 100 ms/token.
var serveSLO = serve.SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 100 * sim.Millisecond}

func printServeHeader(r *Report) {
	r.Printf("  %-10s %-8s %9s %9s %9s %9s %9s %9s %7s\n",
		"rate", "lib", "ttft p50", "ttft p99", "tpot p50", "tpot p99", "tok/s", "goodput", "slo%")
}

func printServeRow(r *Report, rate, lib string, s serve.Summary) {
	r.Printf("  %-10s %-8s %9.1f %9.1f %9.1f %9.1f %9.0f %9.0f %6.1f%%\n",
		rate, lib, s.TTFTp50ms, s.TTFTp99ms, s.TPOTp50ms, s.TPOTp99ms,
		s.ThroughputTokS, s.GoodputTokS, 100*s.SLOAttainment)
}

func recordServeSummary(r *Report, key string, s serve.Summary) {
	r.Metric(key+" ttft_p50", "ms", s.TTFTp50ms)
	r.Metric(key+" ttft_p99", "ms", s.TTFTp99ms)
	r.Metric(key+" tpot_p99", "ms", s.TPOTp99ms)
	r.Metric(key+" goodput", "tok/s", s.GoodputTokS)
	r.Metric(key+" slo_attainment", "frac", s.SLOAttainment)
}

// serveLlama70B: Llama3-70B TP=8 on one A100-80G node under seeded Poisson
// traffic at increasing rates, NCCL-sim vs MSCCL++ backends. The serving
// translation of Figure 11: per-step decode speedups compound into tail
// latency and goodput once queueing dynamics are in play.
func serveLlama70B(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	timers := map[inference.Library]*inference.ARTimer{
		inference.LibNCCL:    inference.NewARTimer(envFn, inference.LibNCCL),
		inference.LibMSCCLPP: inference.NewARTimer(envFn, inference.LibMSCCLPP),
	}
	rates := []float64{4, 8, 12}
	libs := []inference.Library{inference.LibNCCL, inference.LibMSCCLPP}
	r.Println("\nServing: Llama3-70b continuous batching (TP=8, A100-80G, 200-request Poisson, SLO: TTFT<=2s TPOT<=100ms)")
	printServeHeader(r)
	type cell struct {
		rate float64
		lib  inference.Library
	}
	var cells []cell
	for _, rate := range rates {
		for _, lib := range libs {
			cells = append(cells, cell{rate, lib})
		}
	}
	sums := make([]serve.Summary, len(cells))
	err := benchkit.Parallel(len(cells), func(i int) error {
		c := cells[i]
		// Seed depends only on the rate so both libraries replay the exact
		// same arrival sequence — the comparison isolates the backend.
		wl := serve.Poisson(7000+uint64(c.rate), 200, c.rate,
			serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192))
		res, err := serve.RunRouted(serve.RouterConfig{Replicas: 1, Replica: serve.Config{
			Env:             envFn(),
			Model:           inference.Llama3x70B(8),
			AR:              timers[c.lib].Time,
			MaxBatch:        32,
			KVCapacityBytes: 4 << 30,
			ChunkTokens:     512,
			Metrics:         serve.MetricsExact,
		}}, wl)
		if err != nil {
			return err
		}
		sums[i] = res.Summarize(serveSLO)
		return nil
	})
	if err != nil {
		return err
	}
	for i, c := range cells {
		rate := benchkit.HumanSize(int64(c.rate)) + " req/s"
		printServeRow(r, rate, string(c.lib), sums[i])
		recordServeSummary(r, string(c.lib)+" rate="+benchkit.HumanSize(int64(c.rate)), sums[i])
	}
	return nil
}

// serveDeepSeek: DeepSeek-V3 TP=16 over two H100 nodes, steady Poisson vs
// an on/off burst at the same average rate. Bursts stress admission: the
// KV gate and batch bound must absorb 8x the base rate without collapsing
// the tails.
func serveDeepSeek(r *Report) error {
	envFn := func() *topology.Env { return topology.H100(2) }
	mpp := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	cfg := func() serve.Config {
		return serve.Config{
			Env:             envFn(),
			Model:           inference.DeepSeekV3(16),
			AR:              mpp.Time,
			MaxBatch:        32,
			KVCapacityBytes: 1 << 30,
			ChunkTokens:     512,
			Metrics:         serve.MetricsExact,
		}
	}
	// ~2.7 req/s average either way: steady, or 1 req/s base with 8 req/s
	// bursts one-quarter of the time.
	workloads := []serve.Workload{
		serve.Poisson(8101, 160, 2.75, serve.LogNormalLen(768, 0.5, 2048), serve.LogNormalLen(96, 0.5, 256)),
		serve.Bursty(8102, 160, 1, 8, 6*sim.Second, 2*sim.Second,
			serve.LogNormalLen(768, 0.5, 2048), serve.LogNormalLen(96, 0.5, 256)),
	}
	r.Println("\nServing: DeepSeek-V3 continuous batching (TP=16, 2x H100, MSCCL++, steady vs bursty arrivals)")
	printServeHeader(r)
	sums := make([]serve.Summary, len(workloads))
	err := benchkit.Parallel(len(workloads), func(i int) error {
		res, err := serve.RunRouted(serve.RouterConfig{Replicas: 1, Replica: cfg()}, workloads[i])
		if err != nil {
			return err
		}
		sums[i] = res.Summarize(serveSLO)
		return nil
	})
	if err != nil {
		return err
	}
	labels := []string{"steady", "bursty"}
	for i, s := range sums {
		printServeRow(r, labels[i], "mscclpp", s)
		recordServeSummary(r, labels[i], s)
	}
	return nil
}

// serveRateSweep: goodput-vs-offered-rate curves for Llama3-70B TP=8 on
// three Table-2 environments, every (env, rate) cell an independent
// simulation fanned out with benchkit.Parallel. The knee of each curve is
// the environment's serving capacity under the SLO.
func serveRateSweep(r *Report) error {
	envs := []struct {
		name string
		fn   func() *topology.Env
	}{
		{"A100-80G", func() *topology.Env { return topology.A100_80G(1) }},
		{"H100", func() *topology.Env { return topology.H100(1) }},
		{"MI300x", func() *topology.Env { return topology.MI300x(1) }},
	}
	rates := []float64{2, 6, 10, 14}
	timers := make([]*inference.ARTimer, len(envs))
	for i, e := range envs {
		timers[i] = inference.NewARTimer(e.fn, inference.LibMSCCLPP)
	}
	type cell struct{ env, rate int }
	var cells []cell
	for ei := range envs {
		for ri := range rates {
			cells = append(cells, cell{ei, ri})
		}
	}
	sums := make([]serve.Summary, len(cells))
	err := benchkit.Parallel(len(cells), func(i int) error {
		c := cells[i]
		wl := serve.Poisson(9000+uint64(c.rate), 120, rates[c.rate],
			serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192))
		res, err := serve.RunRouted(serve.RouterConfig{Replicas: 1, Replica: serve.Config{
			Env:             envs[c.env].fn(),
			Model:           inference.Llama3x70B(8),
			AR:              timers[c.env].Time,
			MaxBatch:        32,
			KVCapacityBytes: 4 << 30,
			ChunkTokens:     512,
			Metrics:         serve.MetricsExact,
		}}, wl)
		if err != nil {
			return err
		}
		sums[i] = res.Summarize(serveSLO)
		return nil
	})
	if err != nil {
		return err
	}
	r.Println("\nServing: goodput under SLO vs offered rate, Llama3-70b TP=8, MSCCL++ (120-request Poisson per cell)")
	r.Printf("  %-10s", "env")
	for _, rate := range rates {
		r.Printf(" %7.0fq/s", rate)
	}
	r.Printf("   (goodput tok/s | slo%%)\n")
	for ei, e := range envs {
		r.Printf("  %-10s", e.name)
		for ri := range rates {
			s := sums[ei*len(rates)+ri]
			r.Printf(" %6.0f|%3.0f", s.GoodputTokS, 100*s.SLOAttainment)
			recordServeSummary(r, e.name+" rate="+benchkit.HumanSize(int64(rates[ri])), s)
		}
		r.Println()
	}
	return nil
}
