package scenario

// The collective-communication artifacts: Table 1 (peer-to-peer
// primitives), Figures 7-10 (AllReduce / AllGather across A100-40G, H100
// and MI300x), the DSL-vs-Primitive comparison (§7.1) and the
// gain-breakdown ablations. Run them with
// `paperbench -run table1,fig7,fig8,fig9,fig10,dslvsprim,ablation`; the
// printed text is byte-identical to the pre-registry command.

import (
	"fmt"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/collective"
	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

type libFns struct {
	names []string
	fns   []benchkit.MeasureFn
}

func allReduceFns() libFns {
	return libFns{
		names: []string{"NCCL", "MSCCL", "MSCCL++"},
		fns:   []benchkit.MeasureFn{benchkit.NCCLAllReduce, benchkit.MSCCLAllReduce, benchkit.MSCCLPPAllReduce},
	}
}

func allGatherFns() libFns {
	return libFns{
		names: []string{"NCCL", "MSCCL", "MSCCL++"},
		fns:   []benchkit.MeasureFn{benchkit.NCCLAllGather, benchkit.MSCCLAllGather, benchkit.MSCCLPPAllGather},
	}
}

// collFigure renders one Figure 7/8-style grid: 1n8g, 2n16g, 4n32g.
func collFigure(r *Report, title string, envFn func(nodes int) *topology.Env, libs libFns) error {
	for _, nodes := range []int{1, 2, 4} {
		env := envFn(nodes)
		label := fmt.Sprintf("%s — %dn%dg", title, nodes, env.TotalGPUs())
		if err := renderPanels(r, label, env, libs); err != nil {
			return err
		}
	}
	return nil
}

func singleNodeFigure(r *Report, title string, env *topology.Env, libs libFns) error {
	return renderPanels(r, title, env, libs)
}

// renderPanels sweeps every (library, size) configuration of one panel
// pair. Each Sweep call fans its per-size simulations out across the worker
// pool (see benchkit.Sweep); results land in index-stable slots, keeping
// the printed tables byte-identical to a sequential run.
func renderPanels(r *Report, label string, env *topology.Env, libs libFns) error {
	var small, large []benchkit.Series
	for i, fn := range libs.fns {
		s, err := benchkit.Sweep(env, libs.names[i], benchkit.SmallSizes(), fn)
		if err != nil {
			return err
		}
		small = append(small, s)
		l, err := benchkit.Sweep(env, libs.names[i], benchkit.LargeSizes(), fn)
		if err != nil {
			return err
		}
		large = append(large, l)
	}
	r.LatencyTable(label+" (small messages)", small)
	r.BandwidthTable(label+" (large messages)", large)
	all := benchkit.Series{Name: "all", Points: append(append([]benchkit.Point{}, small[len(small)-1].Points...), large[len(large)-1].Points...)}
	allBaseN := benchkit.Series{Name: "nccl", Points: append(append([]benchkit.Point{}, small[0].Points...), large[0].Points...)}
	allBaseM := benchkit.Series{Name: "msccl", Points: append(append([]benchkit.Point{}, small[1].Points...), large[1].Points...)}
	r.Speedup("  MSCCL++ vs NCCL ", label+" | MSCCL++ vs NCCL", allBaseN, all)
	r.Speedup("  MSCCL++ vs MSCCL", label+" | MSCCL++ vs MSCCL", allBaseM, all)
	r.Println()
	return nil
}

// table1 reproduces Table 1: MSCCL++ primitive p2p performance vs the best
// achievable on the H100 environment.
func table1(r *Report) error {
	env := topology.H100(2)
	r.Println("\nTable 1: Primitive API peer-to-peer performance (H100)")

	// NVLink throughput: PortChannel DMA, 256 MB.
	{
		m := machine.New(topology.H100(1))
		c := core.NewCommunicator(m)
		const size = 256 << 20
		src, dst := m.Alloc(0, "src", size), m.Alloc(1, "dst", size)
		ch, _ := c.NewPortChannelPairEx(0, 1, src, dst, dst, src)
		m.GPUs[0].Kernel("bw", 1, func(k *machine.Kernel) {
			ch.Put(k, 0, 0, size, 0, 1)
			ch.Flush(k)
		}).Start()
		if err := m.Run(); err != nil {
			return err
		}
		bw := float64(size) / float64(m.Now()-m.Model.KernelLaunch)
		r.Printf("  NVLink throughput (GB/s): best %.1f   MSCCL++ (PortChannel) %.1f\n", env.DMABW, bw)
		r.Metric("nvlink throughput best", "GB/s", env.DMABW)
		r.Metric("nvlink throughput mscclpp", "GB/s", bw)
	}
	// NVLink latency: MemoryChannel LL packet, 8 B.
	{
		m := machine.New(topology.H100(1))
		c := core.NewCommunicator(m)
		src, dst := m.Alloc(0, "src", 8), m.Alloc(1, "dst", 8)
		ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
		var lat sim.Duration
		m.GPUs[0].Kernel("lat-send", 1, func(k *machine.Kernel) {
			ch0.PutPackets(k, 0, 0, 8, 0, 1, 1)
		}).Start()
		m.GPUs[1].Kernel("lat-recv", 1, func(k *machine.Kernel) {
			t0 := k.Now()
			ch1.AwaitPackets(k, 1, 8)
			lat = k.Now() - t0
		}).Start()
		if err := m.Run(); err != nil {
			return err
		}
		r.Printf("  NVLink latency (ns):      best %d    MSCCL++ (MemoryChannel) %d\n", env.IntraLat, lat)
		r.Duration("nvlink latency best", int64(env.IntraLat))
		r.Duration("nvlink latency mscclpp", int64(lat))
	}
	// InfiniBand throughput: PortChannel RDMA, 256 MB across nodes.
	{
		m := machine.New(topology.H100(2))
		c := core.NewCommunicator(m)
		const size = 256 << 20
		src, dst := m.Alloc(0, "src", size), m.Alloc(8, "dst", size)
		ch, _ := c.NewPortChannelPairEx(0, 8, src, dst, dst, src)
		m.GPUs[0].Kernel("ibbw", 1, func(k *machine.Kernel) {
			ch.Put(k, 0, 0, size, 0, 1)
			ch.Flush(k)
		}).Start()
		if err := m.Run(); err != nil {
			return err
		}
		bw := float64(size) / float64(m.Now()-m.Model.KernelLaunch)
		r.Printf("  InfiniBand throughput (GB/s): best %.2f  MSCCL++ (PortChannel) %.2f\n", env.IBBW, bw)
		r.Metric("ib throughput best", "GB/s", env.IBBW)
		r.Metric("ib throughput mscclpp", "GB/s", bw)
	}
	// InfiniBand latency: PortChannel 4 B put+signal end to end.
	{
		m := machine.New(topology.H100(2))
		c := core.NewCommunicator(m)
		src, dst := m.Alloc(0, "src", 4), m.Alloc(8, "dst", 4)
		ch0, ch1 := c.NewPortChannelPairEx(0, 8, src, dst, dst, src)
		var lat sim.Duration
		m.GPUs[0].Kernel("iblat-s", 1, func(k *machine.Kernel) {
			ch0.PutWithSignal(k, 0, 0, 4, 0, 1)
		}).Start()
		m.GPUs[8].Kernel("iblat-r", 1, func(k *machine.Kernel) {
			t0 := k.Now()
			ch1.Wait(k)
			lat = k.Now() - t0
		}).Start()
		if err := m.Run(); err != nil {
			return err
		}
		r.Printf("  InfiniBand latency (us):  best %.2f  MSCCL++ (PortChannel) %.2f\n",
			float64(env.IBLat)/1000, float64(lat)/1000)
		r.Duration("ib latency best", int64(env.IBLat))
		r.Duration("ib latency mscclpp", int64(lat))
	}
	return nil
}

// dslVsPrim reproduces the §7.1 DSL-vs-Primitive comparison.
func dslVsPrim(r *Report) error {
	r.Println("\nDSL vs Primitive API (AllReduce, A100-40G 1n8g)")
	type pair struct {
		name  string
		size  int64
		nTB   int
		build func(ranks int, size int64, nTB int) (*dsl.Program, error)
		prim  collective.Algorithm
	}
	cases := []pair{
		{"1PA-LL 8KB", 8 << 10, 2, dsl.BuildAllReduce1PA, &collective.AllReduce1PA{TB: 2}},
		{"1PA-LL 64KB", 64 << 10, 2, dsl.BuildAllReduce1PA, &collective.AllReduce1PA{TB: 2}},
		{"2PA-HB 1MB", 1 << 20, 4, dsl.BuildAllReduce2PAHB, &collective.AllReduce2PAHB{TB: 4}},
		{"2PA-HB 16MB", 16 << 20, 8, dsl.BuildAllReduce2PAHB, &collective.AllReduce2PAHB{TB: 8}},
	}
	var overheads []float64
	for _, cse := range cases {
		prog, err := cse.build(8, cse.size, cse.nTB)
		if err != nil {
			return err
		}
		pl, err := prog.Lower()
		if err != nil {
			return err
		}
		// DSL-executed.
		mD := machine.New(topology.A100_40G(1))
		mD.MaterializeLimit = 0
		cD := core.NewCommunicator(mD)
		inD, outD := allocBufs(mD, cse.size)
		inst, err := executor.New(cD, pl, inD, outD)
		if err != nil {
			return err
		}
		start := mD.Engine.Now()
		inst.Launch()
		if err := mD.Run(); err != nil {
			return err
		}
		dslT := mD.Engine.Now() - start
		// Primitive.
		primT, _, err := benchkit.Best(topology.A100_40G(1), cse.size, cse.size, cse.prim.Prepare)
		if err != nil {
			return err
		}
		ov := float64(dslT-primT) / float64(primT) * 100
		overheads = append(overheads, ov)
		r.Printf("  %-12s  primitive %8.2fus   DSL %8.2fus   overhead %+.1f%%\n",
			cse.name, float64(primT)/1000, float64(dslT)/1000, ov)
		r.Duration(cse.name+" primitive", int64(primT))
		r.Duration(cse.name+" dsl", int64(dslT))
	}
	var sum float64
	for _, o := range overheads {
		sum += o
	}
	r.Printf("  mean DSL overhead: %.1f%% (paper: ~3%%, up to 18%%)\n", sum/float64(len(overheads)))
	r.Metric("mean dsl overhead", "%", sum/float64(len(overheads)))
	return nil
}

func allocBufs(m *machine.Machine, size int64) (in, out []*mem.Buffer) {
	for r := 0; r < len(m.GPUs); r++ {
		in = append(in, m.Alloc(r, "in", size))
		out = append(out, m.Alloc(r, "out", size))
	}
	return
}

// ablation reproduces the §7.1/§7.2 gain-breakdown observations.
func ablation(r *Report) error {
	r.Println("\nAblations (gain breakdown)")
	measure := func(env *topology.Env, algo collective.Algorithm, size int64) (sim.Duration, error) {
		d, _, err := benchkit.Best(env, size, size, algo.Prepare)
		return d, err
	}
	// (a) LL vs HB one-phase at 1KB: relaxed synchronization.
	a100 := topology.A100_40G(1)
	ll, err := measure(a100, &collective.AllReduce1PA{}, 1<<10)
	if err != nil {
		return err
	}
	hb, err := measure(a100, &collective.AllReduce1PAHB{}, 1<<10)
	if err != nil {
		return err
	}
	r.Printf("  1KB one-phase: LL %0.2fus vs HB-signal %0.2fus (%.0f%% latency cut from LL flags)\n",
		float64(ll)/1000, float64(hb)/1000, (1-float64(ll)/float64(hb))*100)
	r.Duration("1KB one-phase ll", int64(ll))
	r.Duration("1KB one-phase hb", int64(hb))
	// (b) PortChannel vs MemoryChannel ring at 1GB (paper: +6.2%).
	port, err := measure(a100, &collective.AllReduce2PR{}, 1<<30)
	if err != nil {
		return err
	}
	memv, err := measure(a100, &collective.AllReduce2PR{UseMemoryChannel: true}, 1<<30)
	if err != nil {
		return err
	}
	r.Printf("  1GB 2PR: PortChannel %.2fms vs MemoryChannel %.2fms (+%.1f%% bandwidth)\n",
		float64(port)/1e6, float64(memv)/1e6, (float64(memv)/float64(port)-1)*100)
	r.Duration("1GB 2PR portchannel", int64(port))
	r.Duration("1GB 2PR memorychannel", int64(memv))
	// (c) SwitchChannel vs MemoryChannel 2PA on H100 (paper: up to +56% BW).
	h100 := topology.H100(1)
	sw, err := measure(h100, &collective.AllReduce2PASwitch{}, 256<<20)
	if err != nil {
		return err
	}
	mc, err := measure(h100, &collective.AllReduce2PAHB{}, 256<<20)
	if err != nil {
		return err
	}
	r.Printf("  256MB H100: SwitchChannel %.2fms vs MemoryChannel %.2fms (+%.0f%% bandwidth)\n",
		float64(sw)/1e6, float64(mc)/1e6, (float64(mc)/float64(sw)-1)*100)
	r.Duration("256MB H100 switchchannel", int64(sw))
	r.Duration("256MB H100 memorychannel", int64(mc))
	return nil
}
