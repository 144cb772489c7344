package scenario

// The overload-robustness artifact: one replica engine pushed to roughly
// twice its sustainable load on a deliberately small KV budget, comparing
// whole-request KV reservation against the block-granular paged allocator
// (internal/serve's KVPaged) across admission orders, with a two-tier
// priority workload and auto recompute-or-swap preemption. The in-run
// assertions pin the three properties the paged allocator exists for:
// paged admission strictly out-goodputs whole-footprint reservation at
// equal load, the interactive tier's SLO attainment survives the overload
// while the batch tier absorbs the loss, and every preemption's
// recompute-or-swap choice matches the cheaper closed-form cost.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/topology"
)

// interactiveSLOFloor is the in-run floor on the interactive tier's SLO
// attainment under 2x overload for every paged cell. The reserve baseline
// is exempt: without preemption the scheduler cannot shield one tier from
// the other once the pool saturates.
const interactiveSLOFloor = 0.75

// serveOverload: Llama3-70B TP=8 on one A100-80G node with the KV budget
// squeezed to 256 MiB (~6.5k resident tokens, ~410 16-token blocks) under
// a 180-request Poisson stream at twice the sustainable rate, 30% of it
// interactive (priority 0) and the rest batch. Cell 0 is the
// whole-request reservation baseline; the paged cells run block-granular
// admission with auto recompute-or-swap preemption under FIFO, SJF and
// decode-prioritizing admission orders.
func serveOverload(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	timer := inference.NewARTimer(envFn, inference.LibMSCCLPP)

	wl := serve.WithPriorities(
		serve.Poisson(7001, 180, 24,
			serve.LogNormalLen(256, 0.6, 1024), serve.LogNormalLen(64, 0.5, 192)),
		7001, 0.3)

	base := routedReplica(timer.Time)
	base.KVCapacityBytes = 256 << 20
	base.Preempt = serve.PreemptAuto

	cells := []struct {
		name string
		kv   serve.KVPolicy
		adm  serve.AdmissionOrder
	}{
		{"reserve-fifo", serve.KVReserve, serve.AdmitFIFO},
		{"paged-fifo", serve.KVPaged, serve.AdmitFIFO},
		{"paged-sjf", serve.KVPaged, serve.AdmitSJF},
		{"paged-decode1st", serve.KVPaged, serve.AdmitDecodeFirst},
	}
	results := make([]*serve.Result, len(cells))
	err := benchkit.Parallel(len(cells), func(i int) error {
		cfg := base
		cfg.KVPolicy = cells[i].kv
		cfg.Admission = cells[i].adm
		rr, err := serve.RunRouted(serve.RouterConfig{Replicas: 1, Replica: cfg}, wl)
		if err != nil {
			return err
		}
		results[i] = rr.Merged
		return nil
	})
	if err != nil {
		return err
	}

	r.Println("\nOverload: paged KV + preemption vs whole-request reservation at 2x load (Llama3-70b TP=8, A100-80G, MSCCL++, 256 MiB KV)")
	r.Println("180-request Poisson at 24 req/s, 30% interactive / 70% batch; paged cells use 16-token blocks and auto recompute-or-swap eviction")
	r.Printf("  %-16s %9s %9s %9s %7s %9s %9s %8s %9s %8s %8s\n",
		"config", "ttft p50", "ttft p99", "goodput", "slo%", "preempts", "rc/swap", "swap GB", "rejected", "int slo%", "bat slo%")
	sums := make([]serve.Summary, len(cells))
	for i, c := range cells {
		res := results[i]
		s := res.SummarizeTiered(serveSLO, nil)
		sums[i] = s
		tier := func(p int) serve.TierSummary {
			for _, ts := range s.ByTier {
				if ts.Priority == p {
					return ts
				}
			}
			return serve.TierSummary{}
		}
		it, bt := tier(0), tier(1)
		r.Printf("  %-16s %9.1f %9.1f %9.0f %6.1f%% %9d %5d/%-3d %8.2f %9d %7.1f%% %7.1f%%\n",
			c.name, s.TTFTp50ms, s.TTFTp99ms, s.GoodputTokS, 100*s.SLOAttainment,
			res.Preemptions, res.Recomputes, res.Swaps, float64(res.SwapBytes)/1e9,
			res.Rejected, 100*it.SLOAttainment, 100*bt.SLOAttainment)
		recordServeSummary(r, c.name, s)
		r.Metric(c.name+" preemptions", "count", float64(res.Preemptions))
		r.Metric(c.name+" swap_bytes", "GB", float64(res.SwapBytes)/1e9)
		r.Metric(c.name+" interactive_slo", "frac", it.SLOAttainment)
		r.Metric(c.name+" batch_slo", "frac", bt.SLOAttainment)

		if c.kv == serve.KVPaged {
			// (b) The priority mechanism must hold under overload: the
			// interactive tier stays above the floor, and strictly above the
			// batch tier that absorbs the loss.
			if res.Preemptions == 0 {
				return fmt.Errorf("overload property violated: %s never preempted — the load is not 2x capacity", c.name)
			}
			if it.SLOAttainment < interactiveSLOFloor {
				return fmt.Errorf("overload property violated: %s interactive SLO attainment %.3f below the %.2f floor",
					c.name, it.SLOAttainment, interactiveSLOFloor)
			}
			if it.SLOAttainment <= bt.SLOAttainment {
				return fmt.Errorf("overload property violated: %s interactive tier (%.3f) does not beat batch (%.3f) — priority classes are inert",
					c.name, it.SLOAttainment, bt.SLOAttainment)
			}
			// (c) Every preemption's recompute-or-swap choice must match the
			// cheaper closed-form cost recorded in the event itself.
			for _, ev := range res.Preempts {
				want := "recompute"
				if ev.SwapCostNs < ev.RecomputeCostNs {
					want = "swap"
				}
				if ev.Mode != want {
					return fmt.Errorf("overload property violated: %s preempted request %d by %s where %s is cheaper (recompute %d ns, swap %d ns)",
						c.name, ev.RequestID, ev.Mode, want, ev.RecomputeCostNs, ev.SwapCostNs)
				}
			}
		}
	}

	// (a) The headline: block-granular admission must strictly out-goodput
	// whole-request reservation at equal load and equal admission order —
	// reservation holds decode-phase bytes idle for the whole prompt queue
	// wait, paged admission hands them to requests that can use them now.
	if sums[1].GoodputTokS <= sums[0].GoodputTokS {
		return fmt.Errorf("overload property violated: paged-fifo goodput %.0f tok/s does not beat reserve-fifo %.0f tok/s",
			sums[1].GoodputTokS, sums[0].GoodputTokS)
	}
	r.Printf("  paged-fifo goodput %.0f tok/s vs reserve-fifo %.0f tok/s (+%.0f%%); interactive tier held >= %.0f%% SLO in every paged cell\n",
		sums[1].GoodputTokS, sums[0].GoodputTokS,
		100*(sums[1].GoodputTokS/sums[0].GoodputTokS-1), 100*interactiveSLOFloor)
	return nil
}
