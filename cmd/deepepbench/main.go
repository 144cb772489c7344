// Command deepepbench prices one DeepEP-style expert-parallel
// dispatch (FP8) and combine (BF16) pair on the paper's Figure 13
// environment (two H100 nodes, 16 GPUs, DeepSeek-V3 settings) at a chosen
// batch, transport, hot-expert skew and expert placement. It reports
// per-phase bandwidth, the routing's load factor and the cross-GPU byte
// volume:
//
//	deepepbench -tokens 4100 -transport nvshmem-ibgda -imbalance 0.5 -placement rebalance
//
// The Figure 13 sweep itself, comparing NVSHMEM-IBGDA with MSCCL++
// PortChannels across batch sizes, is `paperbench -run fig13`.
package main

import (
	"flag"
	"fmt"
	"log"

	"mscclpp/internal/moe"
)

func main() {
	tokens := flag.Int("tokens", 4096, "batch tokens per all-to-all (any count; non-divisible remainders spread over the first ranks)")
	transport := flag.String("transport", string(moe.TransportIBGDA), "all-to-all stack (mscclpp|nvshmem-ibgda)")
	imbalance := flag.Float64("imbalance", 0, "hot-expert skew fraction in [0, 1] (0 = balanced Figure 13 routing)")
	placement := flag.String("placement", "uniform", "expert-to-GPU map (uniform|rebalance)")
	flag.Parse()

	if err := run(*tokens, moe.Transport(*transport), *imbalance, *placement); err != nil {
		log.Fatal(err)
	}
}

// run prices one dispatch+combine pair on the Figure 13 environment
// (two H100 nodes, 16 GPUs) under the chosen routing skew and placement.
func run(tokens int, tr moe.Transport, imbalance float64, placement string) error {
	if tokens < 1 {
		return fmt.Errorf("-tokens must be positive (got %d)", tokens)
	}
	cfg := moe.DefaultConfig()
	cfg.Skew = imbalance
	switch placement {
	case "uniform":
		cfg.Placement = moe.PlaceUniform
	case "rebalance":
		cfg.Placement = moe.PlaceRebalance
	default:
		return fmt.Errorf("-placement must be uniform or rebalance (got %q)", placement)
	}
	env := moe.Paper13Env()
	e, err := moe.New(env, cfg, tr)
	if err != nil {
		return err
	}
	d, err := e.Dispatch(tokens)
	if err != nil {
		return err
	}
	c, err := e.Combine(tokens)
	if err != nil {
		return err
	}
	n := env.TotalGPUs()
	fmt.Printf("DeepEP all-to-all: %d tokens over %d GPUs (2x H100), %s, %d experts top-%d, skew %.2f, placement %s\n",
		tokens, n, tr, cfg.Experts, cfg.TopK, imbalance, placement)
	fmt.Printf("  dispatch (FP8):  %8.2f us, %7.1f GB/s, max per-GPU %s\n",
		float64(d.Elapsed)/1e3, d.AlgoBWGBs, humanBytes(d.BytesMax))
	fmt.Printf("  combine  (BF16): %8.2f us, %7.1f GB/s, max per-GPU %s\n",
		float64(c.Elapsed)/1e3, c.AlgoBWGBs, humanBytes(c.BytesMax))
	fmt.Printf("  load factor %.2fx (hottest GPU's received activations over the per-GPU mean)\n",
		cfg.LoadFactor(n, tokens))
	return nil
}

// humanBytes renders a byte count with a binary-ish decimal unit.
func humanBytes(b int64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f KB", float64(b)/1e3)
	}
	return fmt.Sprintf("%d B", b)
}
