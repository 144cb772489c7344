// Serving example: replay a seeded Poisson request stream against a
// continuous-batching scheduler on a simulated 8x A100-80G node running
// Llama3-70B (TP=8), with the tensor-parallel AllReduces priced by the
// simulated MSCCL++ collectives. Prints the per-request latency
// distribution and goodput under a TTFT/TPOT SLO.
//
// Flags keep it smoke-test friendly:
//
//	go run ./examples/serving -requests 40 -rate 6
package main

import (
	"flag"
	"fmt"
	"log"

	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func main() {
	n := flag.Int("requests", 80, "number of requests")
	rate := flag.Float64("rate", 8, "Poisson arrival rate, requests/second")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	envFn := func() *topology.Env { return topology.A100_80G(1) }
	ar := inference.NewARTimer(envFn, inference.LibMSCCLPP)

	// Prompt lengths follow a log-normal (median 512, capped at 2K), output
	// lengths likewise (median 64) — the shape of production traces.
	wl := serve.Poisson(*seed, *n, *rate,
		serve.LogNormalLen(512, 0.6, 2048), serve.LogNormalLen(64, 0.5, 192))
	fmt.Printf("Workload: %d Poisson requests at %.3g req/s (%d prompt + %d output tokens total)\n",
		len(wl.Requests), *rate, wl.TotalPromptTokens(), wl.TotalOutputTokens())

	res, err := serve.RunRouted(serve.RouterConfig{Replicas: 1, Replica: serve.Config{
		Env:             envFn(),
		Model:           inference.Llama3x70B(8),
		AR:              ar.Time,
		MaxBatch:        32,
		KVCapacityBytes: 4 << 30,            // per-GPU KV budget gates admission
		ChunkTokens:     512,                // chunked-prefill token budget per iteration
		Metrics:         serve.MetricsExact, // retain rows: small run, post-hoc SLO sweeps
	}}, wl)
	if err != nil {
		log.Fatal(err)
	}

	slo := serve.SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 100 * sim.Millisecond}
	s := res.Summarize(slo)
	fmt.Printf("Completed %d requests in %.2fs of virtual time (%d engine iterations)\n",
		s.Requests, s.MakespanS, s.Iterations)
	fmt.Printf("  TTFT  p50 %7.1f ms   p90 %7.1f ms   p99 %7.1f ms\n", s.TTFTp50ms, s.TTFTp90ms, s.TTFTp99ms)
	fmt.Printf("  TPOT  p50 %7.1f ms                    p99 %7.1f ms\n", s.TPOTp50ms, s.TPOTp99ms)
	fmt.Printf("  E2E   p50 %7.1f ms                    p99 %7.1f ms\n", s.E2Ep50ms, s.E2Ep99ms)
	fmt.Printf("  throughput %.0f tok/s, goodput %.0f tok/s, SLO attainment %.1f%% (TTFT<=2s, TPOT<=100ms)\n",
		s.ThroughputTokS, s.GoodputTokS, 100*s.SLOAttainment)
}
