package scenario

// The disaggregated-serving artifact: prefill/decode pool splits versus
// chunked prefill at equal GPU count, with the KV handoff priced on the
// cluster fabric (internal/serve's RunRouted with a decode pool, over
// internal/fabric's DMA/RDMA occupancy models). The sweep walks
// prompt-length mixes and prefill:decode ratios to locate the crossover
// the ROADMAP asks for: where isolating prefill stops costing (handoff +
// fewer decode GPUs) more than it saves (no prefill chunks polluting
// decode iterations).

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/topology"
)

// serveDisagg: Llama3-70B TP=8 replicas on A100-80G nodes, 4 replica slots
// total, under Poisson load at three prompt-length mixes (median 256, 768
// and 1536 prompt tokens, arrival rates scaled to keep offered token load
// comparable). For each mix the chunked-prefill baseline (RunRouted, 4
// unified replicas, JSQ) is compared against every prefill:decode split of
// the same 4 slots (1p3d, 2p2d, 3p1d); every finished prefill pays a real
// KV handoff over the fabric's RDMA NICs. The in-run assertions pin the
// headline crossover: at the long-prompt mix the best split must strictly
// beat chunked prefill on p99 TTFT, at the short-prompt mix chunked must
// stay at least as good on SLO attainment, and every handoff must have
// cost visibly nonzero time (removing the fabric pricing changes this
// golden).
func serveDisagg(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	timer := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	const slots = 4

	mixes := []struct {
		name   string
		median float64
		max    int
		rate   float64
		seed   uint64
	}{
		{"short-256", 256, 1024, 28, 6001},
		{"mid-768", 768, 3072, 20, 6002},
		{"long-1536", 1536, 6144, 14, 6003},
	}
	// Config 0 is the chunked baseline; configs 1..slots-1 are the
	// prefill:decode splits of the same GPU count.
	type split struct{ prefill, decode int }
	configs := []split{{0, slots}}
	for p := 1; p < slots; p++ {
		configs = append(configs, split{p, slots - p})
	}
	cfgName := func(c split) string {
		if c.prefill == 0 {
			return fmt.Sprintf("chunked-%d", slots)
		}
		return fmt.Sprintf("disagg-%dp%dd", c.prefill, c.decode)
	}

	type cell struct{ mix, cfg int }
	var cells []cell
	for mi := range mixes {
		for ci := range configs {
			cells = append(cells, cell{mi, ci})
		}
	}
	sums := make([]serve.Summary, len(cells))
	disagg := make([]*serve.RoutedResult, len(cells)) // nil for chunked cells
	err := benchkit.Parallel(len(cells), func(i int) error {
		c := cells[i]
		mx := mixes[c.mix]
		wl := serve.Poisson(mx.seed, 280, mx.rate,
			serve.LogNormalLen(mx.median, 0.6, mx.max), serve.LogNormalLen(96, 0.5, 256))
		rc := serve.RouterConfig{Replicas: slots, Replica: routedReplica(timer.Time)}
		if cfg := configs[c.cfg]; cfg.prefill > 0 {
			rc.Replicas, rc.Decode = cfg.prefill, cfg.decode
		}
		res, err := serve.RunRouted(rc, wl)
		if err != nil {
			return err
		}
		if rc.Decode > 0 {
			disagg[i] = res
		}
		sums[i] = res.Summarize(serveSLO)
		return nil
	})
	if err != nil {
		return err
	}

	r.Println("\nDisaggregation: prefill/decode pools vs chunked prefill at equal GPU count (4x Llama3-70b TP=8 slots, A100-80G, MSCCL++, JSQ)")
	r.Println("280-request Poisson per cell; prompt medians 256/768/1536 tokens at 28/20/14 req/s; KV handoff priced on the fabric (RDMA, per-TP-rank shards)")
	r.Printf("  %-10s %-12s %9s %9s %9s %9s %7s %11s %9s\n",
		"mix", "config", "ttft p50", "ttft p99", "tpot p99", "goodput", "slo%", "handoff ms", "moved GB")
	for i, c := range cells {
		s := sums[i]
		name := cfgName(configs[c.cfg])
		r.Printf("  %-10s %-12s %9.1f %9.1f %9.1f %9.0f %6.1f%%",
			mixes[c.mix].name, name, s.TTFTp50ms, s.TTFTp99ms, s.TPOTp99ms, s.GoodputTokS, 100*s.SLOAttainment)
		key := mixes[c.mix].name + " " + name
		recordServeSummary(r, key, s)
		if d := disagg[i]; d != nil {
			r.Printf(" %11.2f %9.1f", float64(d.HandoffMeanNs)/1e6, float64(d.HandoffBytes)/1e9)
			r.Metric(key+" handoff_mean", "ms", float64(d.HandoffMeanNs)/1e6)
			r.Metric(key+" handoff_max", "ms", float64(d.HandoffMaxNs)/1e6)
			r.Metric(key+" handoff_bytes", "GB", float64(d.HandoffBytes)/1e9)
			// The fabric pricing must be live: a free handoff means the
			// DMA/RDMA occupancy model was bypassed.
			if d.Handoffs == 0 || d.HandoffMeanNs <= 0 {
				return fmt.Errorf("disagg property violated: %s recorded %d handoffs at mean %d ns — KV transfer is free",
					key, d.Handoffs, d.HandoffMeanNs)
			}
		}
		r.Println()
	}

	// The crossover this artifact exists to locate, enforced in-run. At
	// the long-prompt mix the best prefill:decode split must strictly beat
	// chunked prefill's p99 TTFT at equal GPU count — prefill chunks no
	// longer stall decode batches, and that outweighs the fabric handoff.
	// At the short-prompt mix the trade must flip: chunked prefill's SLO
	// attainment stays at least as good as every split's (dedicating slots
	// to prefill starves decode or queues prompts for no benefit).
	byKey := func(mix string, cfg int) serve.Summary {
		for i, c := range cells {
			if mixes[c.mix].name == mix && c.cfg == cfg {
				return sums[i]
			}
		}
		panic("disagg: missing cell " + mix)
	}
	longChunked := byKey("long-1536", 0)
	bestCfg, best := 0, longChunked
	for ci := 1; ci < len(configs); ci++ {
		if s := byKey("long-1536", ci); s.TTFTp99ms < best.TTFTp99ms {
			bestCfg, best = ci, s
		}
	}
	if bestCfg == 0 {
		return fmt.Errorf("disagg property violated: no pool split beats chunked prefill's long-prompt p99 TTFT (%.1f ms)",
			longChunked.TTFTp99ms)
	}
	shortChunked := byKey("short-256", 0)
	for ci := 1; ci < len(configs); ci++ {
		if s := byKey("short-256", ci); s.SLOAttainment > shortChunked.SLOAttainment {
			return fmt.Errorf("disagg property violated: %s beats chunked prefill on short-prompt SLO attainment (%.3f vs %.3f) — no crossover",
				cfgName(configs[ci]), s.SLOAttainment, shortChunked.SLOAttainment)
		}
	}
	r.Printf("  crossover: long-1536 p99 TTFT %s %.1f ms vs chunked %.1f ms (-%.0f%%); short-256 stays with chunked prefill\n",
		cfgName(configs[bestCfg]), best.TTFTp99ms, longChunked.TTFTp99ms, 100*(1-best.TTFTp99ms/longChunked.TTFTp99ms))
	return nil
}
