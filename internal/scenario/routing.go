package scenario

// The multi-replica routing artifacts: several continuous-batching replica
// engines behind an arrival-splitting router (internal/serve's
// RunRouted), comparing routing policies at equal offered load. This is
// the cluster-scale regime the serving simulator exists for — at a fixed
// per-replica engine, tail latency and goodput are decided by how
// arrivals are split, and by whether requests land where their prompt
// prefix is already cached.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// routedReplica is the shared per-replica engine configuration of the
// routing and disaggregation artifacts: Llama3-70B TP=8 on one A100-80G
// node with MSCCL++ collectives, a 24-deep running batch and a 4 GiB
// per-GPU KV budget. serve-disagg's equal-GPU comparison against the
// routed chunked baseline depends on both sides using this one config.
func routedReplica(ar func(int64) sim.Duration) serve.Config {
	return serve.Config{
		Env:             topology.A100_80G(1),
		Model:           inference.Llama3x70B(8),
		AR:              ar,
		MaxBatch:        24,
		KVCapacityBytes: 4 << 30,
		ChunkTokens:     512,
		Metrics:         serve.MetricsExact,
	}
}

func printRoutingHeader(r *Report) {
	r.Printf("  %-8s %-16s %9s %9s %9s %9s %7s  %s\n",
		"load", "policy", "ttft p50", "ttft p99", "e2e p99", "goodput", "slo%", "req/replica")
}

func printRoutingRow(r *Report, load string, res *serve.RoutedResult, s serve.Summary) {
	r.Printf("  %-8s %-16s %9.1f %9.1f %9.1f %9.0f %6.1f%% ",
		load, res.Policy, s.TTFTp50ms, s.TTFTp99ms, s.E2Ep99ms, s.GoodputTokS, 100*s.SLOAttainment)
	for _, pr := range res.PerReplica {
		r.Printf(" %d", len(pr.PerRequest))
	}
	r.Println()
}

func recordRoutingSummary(r *Report, key string, s serve.Summary) {
	r.Metric(key+" ttft_p50", "ms", s.TTFTp50ms)
	r.Metric(key+" ttft_p99", "ms", s.TTFTp99ms)
	r.Metric(key+" e2e_p99", "ms", s.E2Ep99ms)
	r.Metric(key+" goodput", "tok/s", s.GoodputTokS)
	r.Metric(key+" slo_attainment", "frac", s.SLOAttainment)
}

// serveRouting: 3 Llama3-70B replicas behind round-robin, JSQ and
// prefix-affinity routing, under Poisson and on/off bursty arrivals at
// equal offered rate (~24 req/s aggregate, 60% of requests sharing one of
// 12 prompt prefixes). Round-robin is load-blind, so a burst that lands
// long prompts on one replica inflates the TTFT tail; JSQ routes on
// in-flight tokens and must strictly improve p99 TTFT under the bursty
// load — the run fails (and so does the golden gate) if it ever stops
// doing so.
func serveRouting(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	timer := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	loads := []struct {
		name string
		wl   serve.Workload
	}{
		{"poisson", serve.WithPrefixGroups(
			serve.Poisson(4001, 360, 24, serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192)),
			4100, 12, 0.6, 256)},
		{"bursty", serve.WithPrefixGroups(
			serve.Bursty(4002, 360, 9, 72, 6*sim.Second, 2*sim.Second,
				serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192)),
			4100, 12, 0.6, 256)},
	}
	policies := []string{"round-robin", "jsq", "prefix-affinity"}

	type cell struct{ load, pol int }
	var cells []cell
	for li := range loads {
		for pi := range policies {
			cells = append(cells, cell{li, pi})
		}
	}
	results := make([]*serve.RoutedResult, len(cells))
	err := benchkit.Parallel(len(cells), func(i int) error {
		c := cells[i]
		// Policies carry routing state; each cell gets a fresh instance.
		pol, err := serve.PolicyByName(policies[c.pol])
		if err != nil {
			return err
		}
		results[i], err = serve.RunRouted(serve.RouterConfig{
			Replicas: 3,
			Policy:   pol,
			Replica:  routedReplica(timer.Time),
		}, loads[c.load].wl)
		return err
	})
	if err != nil {
		return err
	}

	r.Println("\nRouting: 3x Llama3-70b replicas (TP=8 each, A100-80G, MSCCL++), 360 requests at ~24 req/s, 60% prefix reuse over 12 groups")
	r.Println("SLO: TTFT<=2s TPOT<=100ms; bursty load is 9 req/s with 72 req/s spikes (2s every 8s)")
	printRoutingHeader(r)
	sums := make([]serve.Summary, len(cells))
	for i, c := range cells {
		sums[i] = results[i].Summarize(serveSLO)
		printRoutingRow(r, loads[c.load].name, results[i], sums[i])
		recordRoutingSummary(r, loads[c.load].name+" "+results[i].Policy, sums[i])
	}

	// The property this artifact exists to demonstrate, enforced: at equal
	// offered load, token-weighted JSQ strictly improves the TTFT tail
	// over load-blind round-robin when arrivals are bursty.
	var rrP99, jsqP99 float64
	for i, c := range cells {
		if loads[c.load].name != "bursty" {
			continue
		}
		switch results[i].Policy {
		case "round-robin":
			rrP99 = sums[i].TTFTp99ms
		case "jsq":
			jsqP99 = sums[i].TTFTp99ms
		}
	}
	if !(jsqP99 < rrP99) {
		return fmt.Errorf("routing property violated: bursty JSQ p99 TTFT %.1f ms is not strictly below round-robin's %.1f ms", jsqP99, rrP99)
	}
	r.Printf("  bursty p99 TTFT: jsq %.1f ms vs round-robin %.1f ms (-%.0f%%)\n", jsqP99, rrP99, 100*(1-jsqP99/rrP99))
	return nil
}

// serveAffinity: prefix-cache affinity vs pure JSQ while the prefix-reuse
// fraction sweeps from 0 to 90% (64 groups of 384 shared tokens, median
// 512-token prompts). Affinity prefills each group's prefix once per
// pinned replica, so its hit rate — and TTFT advantage — grows with
// reuse; JSQ only hits when a group happens to revisit a replica. The
// flip side appears at extreme reuse: pinning hot groups skews load and
// the p99 tail gives some of the win back, the classic affinity-vs-
// balance trade.
func serveAffinity(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	timer := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	reuses := []float64{0, 0.3, 0.6, 0.9}
	policies := []string{"jsq", "prefix-affinity"}

	type cell struct{ reuse, pol int }
	var cells []cell
	for ri := range reuses {
		for pi := range policies {
			cells = append(cells, cell{ri, pi})
		}
	}
	results := make([]*serve.RoutedResult, len(cells))
	err := benchkit.Parallel(len(cells), func(i int) error {
		c := cells[i]
		wl := serve.Poisson(5001, 300, 24, serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192))
		if reuses[c.reuse] > 0 {
			wl = serve.WithPrefixGroups(wl, 5100, 64, reuses[c.reuse], 384)
		}
		pol, err := serve.PolicyByName(policies[c.pol])
		if err != nil {
			return err
		}
		results[i], err = serve.RunRouted(serve.RouterConfig{
			Replicas: 3,
			Policy:   pol,
			Replica:  routedReplica(timer.Time),
		}, wl)
		return err
	})
	if err != nil {
		return err
	}

	r.Println("\nRouting: prefix-cache affinity vs JSQ over prefix-reuse fraction (3x Llama3-70b TP=8, 300 requests at 24 req/s, 64 groups x 384 shared tokens)")
	r.Printf("  %-8s %-16s %9s %9s %9s %7s %7s\n", "reuse", "policy", "ttft p50", "ttft p99", "goodput", "slo%", "hits")
	for i, c := range cells {
		s := results[i].Summarize(serveSLO)
		hits := 0
		for _, m := range results[i].Merged.PerRequest {
			if m.PrefixHit {
				hits++
			}
		}
		r.Printf("  %-8s %-16s %9.1f %9.1f %9.0f %6.1f%% %7d\n",
			fmt.Sprintf("%.0f%%", 100*reuses[c.reuse]), results[i].Policy,
			s.TTFTp50ms, s.TTFTp99ms, s.GoodputTokS, 100*s.SLOAttainment, hits)
		key := fmt.Sprintf("%s reuse=%.0f%%", results[i].Policy, 100*reuses[c.reuse])
		r.Metric(key+" ttft_p50", "ms", s.TTFTp50ms)
		r.Metric(key+" ttft_p99", "ms", s.TTFTp99ms)
		r.Metric(key+" goodput", "tok/s", s.GoodputTokS)
		r.Metric(key+" prefix_hits", "req", float64(hits))
	}
	return nil
}
