// Command servebench runs the traffic-driven serving artifacts: continuous
// batching over the simulated cluster model under Poisson and bursty load,
// reporting TTFT/TPOT tails and goodput under SLOs per communication
// backend (internal/serve layered on internal/inference + the simulated
// collectives), plus the multi-replica routing artifacts (round-robin vs
// JSQ vs prefix-affinity arrival splitting) and the disaggregated
// prefill/decode artifact (pool splits with fabric-priced KV handoff).
//
// It is a thin wrapper over the internal/scenario registry; use
// cmd/paperbench for listing, JSON records and golden-output checks.
//
// Usage:
//
//	servebench -experiment all|llama70b|deepseek|ratesweep|routing|affinity|disagg|moe
//
// Setting any of -replicas/-policy/-requests/-rate/-seed/-disagg/
// -prefill-replicas instead runs an ad-hoc simulation (Llama3-70B TP=8
// per replica, A100-80G, MSCCL++) with the chosen replica count and
// routing policy:
//
//	servebench -replicas 4 -policy jsq -requests 400 -rate 30
//
// With -disagg the same replica slots are split into a disaggregated
// prefill/decode deployment: -prefill-replicas of the -replicas total run
// prompt processing only, the rest decode only, and every finished prefill
// hands its KV cache to the decode replica JSQ picks over the simulated
// fabric (-policy routes arrivals over the prefill pool):
//
//	servebench -disagg -replicas 4 -prefill-replicas 2 -requests 400 -rate 20
//
// Overload robustness knobs (also ad-hoc mode): -kv-bytes shrinks the
// per-replica KV capacity, -preempt recompute|swap|auto switches the
// replicas to block-granular paged KV with the chosen eviction policy,
// and -priority-split 0.3 marks 30% of requests interactive (priority 0)
// with the rest batch. Runs that preempt, swap or reject print those
// counters after the merged summary:
//
//	servebench -replicas 2 -requests 400 -rate 40 -kv-bytes 1073741824 -preempt auto -priority-split 0.3
//
// -counters (also ad-hoc mode) appends one "where did the time go"
// resource-counter report per replica after the summaries: gpu occupancy
// (reservations = priced iterations, busy = compute+comm, idle = stall and
// park time) and, when paged preemption swapped, the per-GPU kv-swap lane
// counters:
//
//	servebench -replicas 2 -requests 400 -rate 40 -counters
//
// -moe (also ad-hoc mode) switches the replicas to the expert-parallel
// DeepSeek-V3 deployment (EP=16 over two H100 nodes, 256 experts top-8,
// IBGDA all-to-all priced per iteration); -experts overrides the expert
// count, -imbalance sets the hot-expert skew fraction and -placement
// uniform|rebalance picks the expert-to-GPU map:
//
//	servebench -moe -replicas 1 -requests 200 -rate 3 -imbalance 0.5 -placement rebalance -counters
//
// -autoscale (also ad-hoc mode) runs an elastically scaled routed fleet
// instead of a fixed one: -replicas becomes the fleet maximum, -policy
// selects the scale policy (static|target-util|slo-pid), -tenants merges
// that many independently seeded diurnal tenants (tenant 0 interactive,
// the rest batch tier), and -provision-delay sets the boot time in
// seconds before a scaled-up replica admits. The run prints the
// fleet-size timeline, the scale-down drain audit and the economics
// report (GPU-hours, cost per million SLO-compliant tokens):
//
//	servebench -autoscale -replicas 4 -policy slo-pid -tenants 2 -requests 400 -rate 10 -provision-delay 45
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/moe"
	"mscclpp/internal/scenario"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// experiments maps this command's traditional short names to registry
// scenario names, in output order.
var experiments = []struct{ short, name string }{
	{"llama70b", "serve-llama70b"},
	{"deepseek", "serve-deepseek"},
	{"ratesweep", "serve-ratesweep"},
	{"routing", "serve-routing"},
	{"affinity", "serve-affinity"},
	{"disagg", "serve-disagg"},
	{"moe", "serve-moe"},
}

func main() {
	exp := flag.String("experiment", "all", "llama70b|deepseek|ratesweep|routing|affinity|disagg|moe|all")
	replicas := flag.Int("replicas", 3, "ad-hoc mode: number of replica engines (enables ad-hoc routed run)")
	policy := flag.String("policy", "jsq", "ad-hoc mode: routing policy, the prefill pool's with -disagg, where decode placement is always jsq ("+strings.Join(serve.PolicyNames(), "|")+")")
	requests := flag.Int("requests", 300, "ad-hoc mode: number of requests")
	rate := flag.Float64("rate", 24, "ad-hoc mode: Poisson arrival rate, requests/second (aggregate)")
	seed := flag.Uint64("seed", 1, "ad-hoc mode: workload seed")
	disagg := flag.Bool("disagg", false, "ad-hoc mode: run a disaggregated prefill/decode deployment instead of a routed one")
	prefillReplicas := flag.Int("prefill-replicas", 1, "ad-hoc -disagg mode: how many of -replicas run prefill (the rest decode)")
	kvBytes := flag.Int64("kv-bytes", 0, "ad-hoc mode: per-replica KV capacity in bytes (0 = the 4 GiB default); shrink it to provoke queueing and preemption")
	prioritySplit := flag.Float64("priority-split", -1, "ad-hoc mode: fraction of requests in the interactive tier (priority 0), the rest batch (priority 1); negative = single tier")
	preempt := flag.String("preempt", "", "ad-hoc mode: run block-granular paged KV with this preemption policy (recompute|swap|auto); empty = whole-footprint reservation")
	counters := flag.Bool("counters", false, "ad-hoc mode: print each replica's resource-counter report (gpu occupancy, kv-swap lanes) after the summaries")
	moeRun := flag.Bool("moe", false, "ad-hoc mode: serve the expert-parallel DeepSeek-V3 deployment (EP=16, 2x H100, IBGDA all-to-all) instead of dense Llama3-70B")
	autoscale := flag.Bool("autoscale", false, "ad-hoc mode: run an elastically scaled routed fleet (-replicas is the fleet maximum; -policy selects the scale policy: "+strings.Join(serve.ScalePolicyNames(), "|")+")")
	tenants := flag.Int("tenants", 2, "ad-hoc -autoscale mode: number of merged independently seeded diurnal tenants (tenant 0 interactive, the rest batch tier)")
	provisionDelay := flag.Float64("provision-delay", 30, "ad-hoc -autoscale mode: boot delay in seconds before a scaled-up replica admits")
	experts := flag.Int("experts", 256, "ad-hoc -moe mode: total routed experts (must be divisible by the 16 expert-parallel GPUs)")
	imbalance := flag.Float64("imbalance", 0, "ad-hoc -moe mode: hot-expert skew fraction in [0, 1] (0 = balanced routing)")
	placement := flag.String("placement", "uniform", "ad-hoc -moe mode: expert-to-GPU map (uniform|rebalance)")
	flag.Parse()

	adhocFlagsSet, prefillSet, moeSubflagSet := false, false, false
	policySet, prioritySet, autoscaleSubflagSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "prefill-replicas":
			prefillSet = true
			adhocFlagsSet = true
		case "experts", "imbalance", "placement":
			moeSubflagSet = true
			adhocFlagsSet = true
		case "tenants", "provision-delay":
			autoscaleSubflagSet = true
			adhocFlagsSet = true
		case "policy":
			policySet = true
			adhocFlagsSet = true
		case "priority-split":
			prioritySet = true
			adhocFlagsSet = true
		case "replicas", "requests", "rate", "seed", "disagg",
			"kv-bytes", "preempt", "counters", "moe", "autoscale":
			adhocFlagsSet = true
		}
	})
	if adhocFlagsSet {
		// Ad-hoc mode and registry mode are mutually exclusive: refuse the
		// ambiguous combination instead of silently ignoring flags (registry
		// artifacts have fixed workloads; the ad-hoc flags cannot apply).
		if *exp != "all" {
			log.Fatalf("ad-hoc flags (-replicas/-policy/-requests/-rate/-seed/-disagg/-prefill-replicas) cannot be combined with -experiment %s", *exp)
		}
		if *requests < 1 || *rate <= 0 || *replicas < 1 {
			log.Fatalf("ad-hoc mode needs -requests >= 1, -rate > 0 and -replicas >= 1 (got %d, %g, %d)", *requests, *rate, *replicas)
		}
		cfg := adhocReplica()
		if *moeRun {
			var err error
			if cfg, err = adhocMoEReplica(*experts, *imbalance, *placement); err != nil {
				log.Fatal(err)
			}
		} else if moeSubflagSet {
			// Same fail-fast rule as -prefill-replicas: refuse the flag
			// rather than silently ignoring it.
			log.Fatal("-experts/-imbalance/-placement only apply with -moe")
		}
		if *kvBytes != 0 {
			if *kvBytes < 0 {
				log.Fatalf("-kv-bytes must be positive (got %d)", *kvBytes)
			}
			cfg.KVCapacityBytes = *kvBytes
		}
		if *preempt != "" {
			cfg.KVPolicy = serve.KVPaged
			switch *preempt {
			case "recompute":
				cfg.Preempt = serve.PreemptRecompute
			case "swap":
				cfg.Preempt = serve.PreemptSwap
			case "auto":
				cfg.Preempt = serve.PreemptAuto
			default:
				log.Fatalf("-preempt must be recompute, swap or auto (got %q)", *preempt)
			}
		}
		if *autoscale {
			// The autoscale mode owns its workload shape (per-tenant diurnal
			// envelopes with built-in tiers) and fleet geometry; refuse the
			// flags it would otherwise silently ignore.
			if *disagg || *moeRun || prefillSet || prioritySet {
				log.Fatal("-autoscale cannot be combined with -disagg, -moe, -prefill-replicas or -priority-split")
			}
			if *tenants < 1 {
				log.Fatalf("-tenants must be >= 1 (got %d)", *tenants)
			}
			if *provisionDelay < 0 {
				log.Fatalf("-provision-delay must be >= 0 seconds (got %g)", *provisionDelay)
			}
			scalePol := "slo-pid"
			if policySet {
				scalePol = *policy
			}
			if err := runAdhocAutoscale(cfg, *replicas, scalePol, *tenants, *requests, *rate, *seed,
				*provisionDelay, *counters); err != nil {
				log.Fatal(err)
			}
			return
		}
		if autoscaleSubflagSet {
			// Same fail-fast rule as the other mode sub-flags.
			log.Fatal("-tenants/-provision-delay only apply with -autoscale")
		}
		wl := adhocWorkload(*requests, *rate, *seed)
		tiered := *prioritySplit >= 0
		if tiered {
			if *prioritySplit > 1 {
				log.Fatalf("-priority-split must be in [0, 1] (got %g)", *prioritySplit)
			}
			wl = serve.WithPriorities(wl, *seed, *prioritySplit)
		}
		serving, decode := *replicas, 0
		if *disagg {
			if *prefillReplicas < 1 || *prefillReplicas >= *replicas {
				log.Fatalf("-disagg needs 1 <= -prefill-replicas < -replicas (got %d of %d)", *prefillReplicas, *replicas)
			}
			serving, decode = *prefillReplicas, *replicas-*prefillReplicas
		} else if prefillSet {
			// Same fail-fast rule as the registry/ad-hoc split: refuse the
			// flag rather than silently ignoring it.
			log.Fatal("-prefill-replicas only applies with -disagg")
		}
		if err := runAdhoc(cfg, serving, decode, *policy, wl, *rate, tiered, *counters); err != nil {
			log.Fatal(err)
		}
		return
	}

	matched := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.short {
			continue
		}
		matched = true
		s, ok := scenario.Get(e.name)
		if !ok {
			log.Fatalf("%s: not registered", e.name)
		}
		if _, err := s.Exec(os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
	}
	if !matched {
		log.Fatalf("unknown experiment %q", *exp)
	}
}

// adhocSLO is the latency objective of both ad-hoc modes.
var adhocSLO = serve.SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 100 * sim.Millisecond}

// adhocReplica is the shared per-replica engine configuration of both
// ad-hoc modes (routed and disaggregated): Llama3-70B TP=8 on one
// A100-80G node with MSCCL++ collectives. Keeping it in one place keeps
// the routed-vs-disagg ad-hoc comparison honest.
func adhocReplica() serve.Config {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	return serve.Config{
		Env:             envFn(),
		Model:           inference.Llama3x70B(8),
		AR:              inference.NewARTimer(envFn, inference.LibMSCCLPP).Time,
		MaxBatch:        24,
		KVCapacityBytes: 4 << 30,
		ChunkTokens:     512,
		Metrics:         serve.MetricsExact,
	}
}

// adhocMoEReplica is the -moe ad-hoc replica: the expert-parallel
// DeepSeek-V3 deployment (EP=16 over two H100 nodes) with the expert
// count, hot-expert skew and placement taken from the flags. Iterations
// pay the per-MoE-layer dispatch/combine all-to-all through an EPTimer on
// the same environment.
func adhocMoEReplica(experts int, imbalance float64, placement string) (serve.Config, error) {
	envFn := func() *topology.Env { return topology.H100(2) }
	model := inference.DeepSeekV3MoE(16)
	if experts < 1 || experts%envFn().TotalGPUs() != 0 {
		return serve.Config{}, fmt.Errorf("-experts must be a positive multiple of %d (got %d)", envFn().TotalGPUs(), experts)
	}
	if imbalance < 0 || imbalance > 1 {
		return serve.Config{}, fmt.Errorf("-imbalance must be in [0, 1] (got %g)", imbalance)
	}
	model.MoE.Config.Experts = experts
	model.MoE.Config.Skew = imbalance
	switch placement {
	case "uniform":
		model.MoE.Config.Placement = moe.PlaceUniform
	case "rebalance":
		model.MoE.Config.Placement = moe.PlaceRebalance
	default:
		return serve.Config{}, fmt.Errorf("-placement must be uniform or rebalance (got %q)", placement)
	}
	return serve.Config{
		Env:             envFn(),
		Model:           model,
		AR:              inference.NewARTimer(envFn, inference.LibMSCCLPP).Time,
		A2A:             inference.NewEPTimer(envFn, model.MoE.Config, model.MoE.Transport).Layer,
		MaxBatch:        24,
		KVCapacityBytes: 4 << 30,
		ChunkTokens:     512,
		Metrics:         serve.MetricsExact,
	}, nil
}

// adhocWorkload is the seeded Poisson request stream of both ad-hoc modes.
func adhocWorkload(requests int, rate float64, seed uint64) serve.Workload {
	return serve.Poisson(seed, requests, rate,
		serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192))
}

// printOverload reports the robustness counters of a merged result —
// preemptions split by mechanism, bytes swapped, structured rejections —
// whenever the run exercised any of them, and the per-tier breakdown when
// the workload carries priority classes.
func printOverload(res *serve.Result, tiered bool) {
	if res.Preemptions > 0 || res.Rejected > 0 {
		fmt.Printf("  overload: %d preemptions (%d recompute / %d swap, %.2f GB swapped), %d rejected\n",
			res.Preemptions, res.Recomputes, res.Swaps, float64(res.SwapBytes)/1e9, res.Rejected)
	}
	if !tiered {
		return
	}
	s := res.SummarizeTiered(adhocSLO, nil)
	for _, ts := range s.ByTier {
		name := "batch"
		if ts.Priority == 0 {
			name = "interactive"
		}
		fmt.Printf("  tier %d (%s): %4d requests, %d rejected, ttft p99 %8.1f ms, goodput %6.0f tok/s, SLO %.1f%%\n",
			ts.Priority, name, ts.Requests, ts.Rejected, ts.TTFTp99ms, ts.GoodputTokS, 100*ts.SLOAttainment)
	}
}

// printCounters renders one replica's resource-counter report over its
// makespan (the span Summarize also rates goodput against).
func printCounters(title string, res *serve.Result) {
	benchkit.PrintCounterReport(os.Stdout, title, res.Makespan, res.Counters)
}

// runAdhoc replays one seeded Poisson workload through a routed
// deployment — a unified fleet, or with decode > 0 a disaggregated one
// whose prefill pool the named policy routes — and prints the merged and
// per-replica summaries, plus the KV-handoff accounting when the
// deployment handed KV off.
func runAdhoc(cfg serve.Config, replicas, decode int, policy string, wl serve.Workload, rate float64, tiered, counters bool) error {
	pol, err := serve.PolicyByName(policy)
	if err != nil {
		return err
	}
	res, err := serve.RunRouted(serve.RouterConfig{
		Replicas: replicas,
		Decode:   decode,
		Policy:   pol,
		Replica:  cfg,
	}, wl)
	if err != nil {
		return err
	}
	slo := adhocSLO
	s := res.Summarize(slo)
	if decode > 0 {
		fmt.Printf("Disaggregated serving: %d requests at %.3g req/s over %dp+%dd replicas, prefill policy %s, decode placement jsq (%s, MSCCL++)\n",
			len(wl.Requests), rate, replicas, decode, res.Policy, cfg.Model.Name)
	} else {
		fmt.Printf("Routed serving: %d requests at %.3g req/s over %d replicas, policy %s (%s, MSCCL++)\n",
			len(wl.Requests), rate, replicas, res.Policy, cfg.Model.Name)
	}
	fmt.Printf("  merged: ttft p50 %.1f ms p99 %.1f ms | tpot p99 %.1f ms | goodput %.0f tok/s | SLO %.1f%%\n",
		s.TTFTp50ms, s.TTFTp99ms, s.TPOTp99ms, s.GoodputTokS, 100*s.SLOAttainment)
	printOverload(res.Merged, tiered)
	if res.Handoffs > 0 {
		fmt.Printf("  KV handoff: %d transfers, %.1f GB moved, mean %.2f ms, max %.2f ms\n",
			res.Handoffs, float64(res.HandoffBytes)/1e9, float64(res.HandoffMeanNs)/1e6, float64(res.HandoffMaxNs)/1e6)
	}
	// Prefill replicas keep rows only for the one-token requests they
	// completed locally; every other request finishes on a decode replica.
	name := func(i int) string {
		switch {
		case decode == 0:
			return fmt.Sprintf("replica %d", i)
		case i < replicas:
			return fmt.Sprintf("prefill %d", i)
		}
		return fmt.Sprintf("decode %d", i-replicas)
	}
	for i, pr := range res.PerReplica {
		ps := pr.Summarize(slo)
		fmt.Printf("  %-10s %4d requests, ttft p99 %8.1f ms, tpot p99 %6.1f ms, %d iterations\n",
			name(i)+":", ps.Requests, ps.TTFTp99ms, ps.TPOTp99ms, ps.Iterations)
	}
	if counters {
		for i, pr := range res.PerReplica {
			printCounters(name(i), pr)
		}
	}
	return nil
}

// adhocBatchSLO is the relaxed objective of the autoscale mode's batch
// tenants (priority 1).
var adhocBatchSLO = serve.SLO{MaxTTFT: 20 * sim.Second, MaxTPOT: 400 * sim.Millisecond}

// runAdhocAutoscale replays a merged multi-tenant diurnal workload
// through an elastically scaled routed fleet and prints the merged
// summary, the fleet-size timeline, the drain audit and the EconReport.
func runAdhocAutoscale(cfg serve.Config, maxReplicas int, policy string, tenants, requests int, rate float64, seed uint64, delaySec float64, counters bool) error {
	pol, err := serve.ScalePolicyByName(policy)
	if err != nil {
		return err
	}
	// The control loop reads SLO attainment, so the objectives are replica
	// configuration here (tenant 0 interactive, the rest batch tier).
	cfg.SLO = adhocSLO
	cfg.TierSLOs = map[int]serve.SLO{1: adhocBatchSLO}
	parts := make([]serve.Workload, tenants)
	for i := range parts {
		t := serve.Diurnal(seed+uint64(i), requests, rate, 0.25, 600*sim.Second,
			serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192))
		if i > 0 {
			for j := range t.Requests {
				t.Requests[j].Priority = 1
			}
		}
		parts[i] = t
	}
	wl := serve.MergeWorkloads(fmt.Sprintf("%d-tenant-diurnal", tenants), parts...)
	res, err := serve.RunRouted(serve.RouterConfig{
		Replicas: 1,
		Policy:   serve.NewJSQ(),
		Replica:  cfg,
		Scale: &serve.Scale{
			Policy:         pol,
			Max:            maxReplicas,
			ProvisionDelay: sim.Duration(delaySec * float64(sim.Second)),
		},
	}, wl)
	if err != nil {
		return err
	}
	s := res.Merged.SummarizeTiered(adhocSLO, cfg.TierSLOs)
	fmt.Printf("Autoscaled serving: %d requests (%d diurnal tenants at peak %.3g req/s each), scale policy %s, fleet 1..%d (%s, MSCCL++)\n",
		len(wl.Requests), tenants, rate, pol.Name(), maxReplicas, cfg.Model.Name)
	fmt.Printf("  merged: ttft p50 %.1f ms p99 %.1f ms | tpot p99 %.1f ms | goodput %.0f tok/s | SLO %.1f%%\n",
		s.TTFTp50ms, s.TTFTp99ms, s.TPOTp99ms, s.GoodputTokS, 100*s.SLOAttainment)
	for _, ts := range s.ByTier {
		name := "batch"
		if ts.Priority == 0 {
			name = "interactive"
		}
		fmt.Printf("  tier %d (%s): %4d requests, ttft p99 %8.1f ms, SLO %.1f%%\n",
			ts.Priority, name, ts.Requests, ts.TTFTp99ms, 100*ts.SLOAttainment)
	}
	fmt.Printf("  fleet timeline (%d scale-ups, %d scale-downs):\n", res.ScaleUps, res.ScaleDowns)
	for _, ev := range res.Fleet {
		fmt.Printf("    t=%8.1fs %-9s replica %2d -> %d active / %d provisioning / %d draining\n",
			float64(ev.TimeNs)/1e9, ev.Event, ev.Replica, ev.Active, ev.Provisioning, ev.Draining)
	}
	for _, d := range res.Drains {
		fmt.Printf("  drain replica %d at t=%.1fs: %d handed off, %d residents, retired t=%.1fs, %d stranded\n",
			d.Replica, float64(d.TimeNs)/1e9, d.HandedOff, d.Residents, float64(d.RetiredNs)/1e9, d.Stranded)
	}
	e := res.Econ
	fmt.Printf("  econ: %.2f GPU-hours at $%.2f/GPU-h = $%.2f | peak %d / mean %.2f replicas | %.0f good tok per GPU-h | $%.3f per Mtok\n",
		e.GPUHours, e.GPUHourPrice, e.CostUSD, e.PeakReplicas, e.MeanReplicas, e.GoodputPerGPUHour, e.CostPerMTok)
	if counters {
		for i, pr := range res.PerReplica {
			printCounters(fmt.Sprintf("replica %d", i), pr)
		}
	}
	return nil
}
