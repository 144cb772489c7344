package scenario

// The LLM-inference artifacts: Figure 11 (Llama3-70B decode speedup with
// vLLM, TP=8 on A100-80G), Figure 12 (DeepSeek-V3 decode throughput with
// SGLang, TP=16 on two H100 nodes) and the §7.3 vLLM
// custom-AllReduce-kernel comparison. Run them with
// `paperbench -run fig11,fig12,customar`; printed text is byte-identical
// to the pre-registry command.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func fig11(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	env := envFn()
	model := inference.Llama3x70B(8)
	nccl := inference.NewARTimer(envFn, inference.LibNCCL)
	mpp := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	r.Println("\nFigure 11: Llama3-70b decode speedup, MSCCL++ over NCCL (vLLM, TP=8, A100-80G)")
	r.Printf("  %-18s %12s %12s %9s\n", "bsz x seqlen", "NCCL (ms)", "MSCCL++ (ms)", "speedup")
	// The (bsz, seqlen) grid points are independent simulations: fan them
	// out and print from index-stable slots so output order is unchanged.
	type combo struct{ bsz, seqlen int }
	var combos []combo
	for _, bsz := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, seqlen := range []int{128, 512, 2048} {
			combos = append(combos, combo{bsz, seqlen})
		}
	}
	times := make([][2]sim.Duration, len(combos))
	benchkit.Parallel(len(combos), func(i int) error {
		c := combos[i]
		times[i][0] = inference.DecodeStep(env, model, c.bsz, c.seqlen, nccl.Time)
		times[i][1] = inference.DecodeStep(env, model, c.bsz, c.seqlen, mpp.Time)
		return nil
	})
	var speedups []float64
	for i, c := range combos {
		tN, tM := times[i][0], times[i][1]
		sp := inference.Speedup(tN, tM)
		speedups = append(speedups, sp)
		r.Printf("  bsz=%-4d seq=%-6d %12.2f %12.2f %8.2fx\n",
			c.bsz, c.seqlen, float64(tN)/1e6, float64(tM)/1e6, sp)
		key := fmt.Sprintf("decode bsz=%d seq=%d", c.bsz, c.seqlen)
		r.Duration(key+" nccl", int64(tN))
		r.Duration(key+" mscclpp", int64(tM))
	}
	r.Printf("  average decode speedup: %.2fx (paper: 1.11x)\n", benchkit.Geomean(speedups))
	r.Metric("average decode speedup", "x", benchkit.Geomean(speedups))
	// Prefill comparison (paper: similar or up to 1.06x).
	tN := inference.PrefillStep(env, model, 8, 1024, nccl.Time)
	tM := inference.PrefillStep(env, model, 8, 1024, mpp.Time)
	r.Printf("  prefill (bsz=8, seq=1024) speedup: %.2fx (paper: up to 1.06x)\n",
		inference.Speedup(tN, tM))
	r.Duration("prefill bsz=8 seq=1024 nccl", int64(tN))
	r.Duration("prefill bsz=8 seq=1024 mscclpp", int64(tM))
	return nil
}

func fig12(r *Report) error {
	envFn := func() *topology.Env { return topology.H100(2) }
	env := envFn()
	model := inference.DeepSeekV3(16)
	nccl := inference.NewARTimer(envFn, inference.LibNCCL)
	mpp := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	r.Println("\nFigure 12: DeepSeek-V3 decode throughput (SGLang, TP=16, 2x H100 nodes, 1024 in / 1024 out)")
	r.Printf("  %-6s %16s %16s %9s\n", "bsz", "baseline tok/s", "MSCCL++ tok/s", "speedup")
	bszs := []int{1, 2, 4, 8, 16, 32, 64}
	times := make([][2]sim.Duration, len(bszs))
	benchkit.Parallel(len(bszs), func(i int) error {
		times[i][0] = inference.DecodeStep(env, model, bszs[i], 1024, nccl.Time)
		times[i][1] = inference.DecodeStep(env, model, bszs[i], 1024, mpp.Time)
		return nil
	})
	var speedups []float64
	for i, bsz := range bszs {
		tN, tM := times[i][0], times[i][1]
		sp := inference.Speedup(tN, tM)
		speedups = append(speedups, sp)
		r.Printf("  %-6d %16.0f %16.0f %8.2fx\n", bsz,
			inference.DecodeThroughput(bsz, tN), inference.DecodeThroughput(bsz, tM), sp)
		key := fmt.Sprintf("decode bsz=%d", bsz)
		r.Duration(key+" baseline", int64(tN))
		r.Duration(key+" mscclpp", int64(tM))
	}
	r.Printf("  average decode speedup: %.2fx (paper: 1.31x)\n", benchkit.Geomean(speedups))
	r.Metric("average decode speedup", "x", benchkit.Geomean(speedups))
	return nil
}

func customAR(r *Report) error {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	custom := inference.NewARTimer(envFn, inference.LibVLLMCustom)
	mpp := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	r.Println("\nvLLM custom AllReduce kernel vs MSCCL++ (A100-80G, TP=8)")
	msgs := []int64{2 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} // vLLM uses its custom kernel only for small inputs
	times := make([][2]sim.Duration, len(msgs))
	benchkit.Parallel(len(msgs), func(i int) error {
		times[i][0], times[i][1] = custom.Time(msgs[i]), mpp.Time(msgs[i])
		return nil
	})
	var ratios []float64
	for i, msg := range msgs {
		tc, tm := times[i][0], times[i][1]
		ratio := inference.Speedup(tc, tm)
		ratios = append(ratios, ratio)
		r.Printf("  msg %-6s custom %8.2fus  MSCCL++ %8.2fus  ratio %.2fx\n",
			benchkit.HumanSize(msg), float64(tc)/1000, float64(tm)/1000, ratio)
		key := "msg " + benchkit.HumanSize(msg)
		r.Duration(key+" custom", int64(tc))
		r.Duration(key+" mscclpp", int64(tm))
	}
	r.Printf("  geomean MSCCL++ advantage: %.2fx (paper: 1.4x geomean, up to 3x)\n",
		benchkit.Geomean(ratios))
	r.Metric("geomean mscclpp advantage", "x", benchkit.Geomean(ratios))
	// End-to-end decode with the custom kernel vs MSCCL++.
	env := envFn()
	model := inference.Llama3x70B(8)
	var sps []float64
	for _, bsz := range []int{1, 8, 32} {
		tC := inference.DecodeStep(env, model, bsz, 512, custom.Time)
		tM := inference.DecodeStep(env, model, bsz, 512, mpp.Time)
		sps = append(sps, inference.Speedup(tC, tM))
	}
	r.Printf("  end-to-end decode speedup vs custom kernel: %.2fx geomean (paper: 1.04x avg, up to 1.11x)\n",
		benchkit.Geomean(sps))
	r.Metric("end-to-end decode speedup vs custom", "x", benchkit.Geomean(sps))
	return nil
}
