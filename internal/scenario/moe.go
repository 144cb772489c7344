package scenario

// The expert-parallel MoE serving artifact: DeepSeek-V3 served end-to-end
// with per-iteration dispatch/combine all-to-alls priced on the simulated
// fabric (internal/inference's MoE step functions over internal/moe),
// against the dense-equivalent card on the same traffic. Three in-run
// properties gate the artifact:
//
//  (a) at equal SLO the dense-equivalent model's goodput is never below
//      the MoE deployment's, and the MoE p99 TPOT is strictly above the
//      dense p99 TPOT on every environment — every MoE iteration pays a
//      strictly positive all-to-all;
//  (b) hot-expert skew under uniform (block) placement strictly degrades
//      p99 TPOT versus balanced routing;
//  (c) the skew-aware rebalancing remap recovers at least half of that
//      degradation.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/moe"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// moeServeCell runs one (environment, model) serving cell on the shared
// MoE traffic on one replica and returns its summary plus the replica's
// result, which carries the counter snapshot.
func moeServeCell(envFn func() *topology.Env, model inference.Model, wl serve.Workload) (serve.Summary, *serve.Result, error) {
	cfg := serve.Config{
		Env:             envFn(),
		Model:           model,
		AR:              inference.NewARTimer(envFn, inference.LibMSCCLPP).Time,
		MaxBatch:        32,
		KVCapacityBytes: 1 << 30,
		ChunkTokens:     512,
		Metrics:         serve.MetricsExact,
	}
	if model.MoE != nil {
		cfg.A2A = inference.NewEPTimer(envFn, model.MoE.Config, model.MoE.Transport).Layer
	}
	res, err := serve.RunRouted(serve.RouterConfig{Replicas: 1, Replica: cfg}, wl)
	if err != nil {
		return serve.Summary{}, nil, err
	}
	return res.Summarize(serveSLO), res.PerReplica[0], nil
}

// a2aFrac extracts the expert-parallel all-to-all share of a replica's
// priced iteration time from its counter snapshot (0 for dense cells).
func a2aFrac(res *serve.Result) float64 {
	var gpu, a2a sim.Duration
	for _, g := range res.Counters {
		switch g.Name {
		case "gpu":
			gpu += g.Stats[0].BusyNs
		case "moe-dispatch", "moe-combine":
			a2a += g.Stats[0].BusyNs
		}
	}
	if gpu <= 0 {
		return 0
	}
	return float64(a2a) / float64(gpu)
}

// serveMoE: DeepSeek-V3 expert-parallel serving across the Table-2
// two-node environments (16 GPUs each), dense-equivalent vs MoE at equal
// SLO, then the imbalance sweep on 2x H100: balanced routing vs 50%
// hot-expert skew under block placement vs the same skew under the
// rebalancing remap.
func serveMoE(r *Report) error {
	// One arrival sequence for every cell: the comparisons isolate the
	// model/placement, never the workload.
	wl := serve.Poisson(13001, 96, 2.5,
		serve.LogNormalLen(768, 0.5, 2048), serve.LogNormalLen(96, 0.5, 256))

	envs := []struct {
		name string
		fn   func() *topology.Env
	}{
		{"A100-80G", func() *topology.Env { return topology.A100_80G(2) }},
		{"H100", func() *topology.Env { return topology.H100(2) }},
		{"MI300x", func() *topology.Env { return topology.MI300x(2) }},
	}

	skewed := inference.DeepSeekV3MoE(16)
	skewed.MoE.Config.Skew = 0.5
	rebalanced := inference.DeepSeekV3MoE(16)
	rebalanced.MoE.Config.Skew = 0.5
	rebalanced.MoE.Config.Placement = moe.PlaceRebalance

	// Cells 0..5: (env x {dense, moe-uniform}); cells 6..7: the H100
	// imbalance pair (skewed block placement, skew-aware rebalance).
	type cell struct {
		env   int
		model inference.Model
		label string
	}
	var cells []cell
	for ei := range envs {
		cells = append(cells,
			cell{ei, inference.DeepSeekV3(16), "dense"},
			cell{ei, inference.DeepSeekV3MoE(16), "moe"})
	}
	const h100 = 1
	cells = append(cells,
		cell{h100, skewed, "moe-skew"},
		cell{h100, rebalanced, "moe-rebalance"})

	sums := make([]serve.Summary, len(cells))
	results := make([]*serve.Result, len(cells))
	err := benchkit.Parallel(len(cells), func(i int) (err error) {
		sums[i], results[i], err = moeServeCell(envs[cells[i].env].fn, cells[i].model, wl)
		return err
	})
	if err != nil {
		return err
	}

	r.Println("\nServing: DeepSeek-V3 expert-parallel MoE vs dense-equivalent (EP=16, two-node Table-2 environments, MSCCL++ AR + IBGDA all-to-all)")
	r.Println("96-request Poisson at 2.5 req/s; MoE: 256 experts top-8 over 58 layers, FP8 dispatch / BF16 combine; SLO: TTFT<=2s TPOT<=100ms")
	r.Printf("  %-10s %-14s %9s %9s %9s %9s %9s %7s %7s\n",
		"env", "model", "ttft p99", "tpot p50", "tpot p99", "tok/s", "goodput", "slo%", "a2a%")
	for i, c := range cells {
		s := sums[i]
		r.Printf("  %-10s %-14s %9.1f %9.1f %9.1f %9.0f %9.0f %6.1f%% %6.1f%%\n",
			envs[c.env].name, c.label, s.TTFTp99ms, s.TPOTp50ms, s.TPOTp99ms,
			s.ThroughputTokS, s.GoodputTokS, 100*s.SLOAttainment, 100*a2aFrac(results[i]))
		key := envs[c.env].name + " " + c.label
		recordServeSummary(r, key, s)
		r.Metric(key+" a2a_frac", "frac", a2aFrac(results[i]))
	}

	// (a) Dense-equivalent vs MoE at equal SLO, per environment: the MoE
	// deployment pays a strictly positive all-to-all every iteration, so
	// its p99 TPOT must sit strictly above dense and its goodput must not
	// exceed dense.
	for ei, e := range envs {
		dense, moeU := sums[2*ei], sums[2*ei+1]
		if moeU.TPOTp99ms <= dense.TPOTp99ms {
			return fmt.Errorf("moe property violated: %s MoE p99 TPOT %.2f ms not above dense-equivalent %.2f ms",
				e.name, moeU.TPOTp99ms, dense.TPOTp99ms)
		}
		if moeU.GoodputTokS > dense.GoodputTokS {
			return fmt.Errorf("moe property violated: %s MoE goodput %.0f tok/s exceeds dense-equivalent %.0f tok/s at equal SLO",
				e.name, moeU.GoodputTokS, dense.GoodputTokS)
		}
		if f := a2aFrac(results[2*ei+1]); f <= 0 {
			return fmt.Errorf("moe property violated: %s MoE cell booked no all-to-all time", e.name)
		}
	}

	// (b)+(c) The imbalance knob on 2x H100: skew under block placement
	// strictly degrades p99 TPOT, and the rebalancing remap recovers at
	// least half of the gap.
	uni, skw, reb := sums[2*h100+1], sums[len(sums)-2], sums[len(sums)-1]
	if skw.TPOTp99ms <= uni.TPOTp99ms {
		return fmt.Errorf("moe property violated: skewed placement p99 TPOT %.2f ms not above balanced %.2f ms",
			skw.TPOTp99ms, uni.TPOTp99ms)
	}
	gap := skw.TPOTp99ms - uni.TPOTp99ms
	if reb.TPOTp99ms > uni.TPOTp99ms+gap/2 {
		return fmt.Errorf("moe property violated: rebalancing recovers too little (balanced %.2f, skewed %.2f, rebalanced %.2f ms p99 TPOT)",
			uni.TPOTp99ms, skw.TPOTp99ms, reb.TPOTp99ms)
	}
	r.Printf("  imbalance (H100): p99 TPOT balanced %.1f ms -> skew 0.5 block %.1f ms; rebalance remap %.1f ms (recovers %.0f%% of the gap)\n",
		uni.TPOTp99ms, skw.TPOTp99ms, reb.TPOTp99ms, 100*(skw.TPOTp99ms-reb.TPOTp99ms)/gap)
	return nil
}
