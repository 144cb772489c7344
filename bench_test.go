// Benchmarks regenerating the paper's tables and figures, one per artifact
// (see DESIGN.md's per-experiment index). Each benchmark executes the full
// simulation and reports the measured *virtual* quantity (latency in
// microseconds or bandwidth in GB/s) as custom metrics; the Go ns/op number
// is simulator wall time and is not a result.
//
// Virtual time vs wall clock: the simulated metrics (us@..., GBps@...) are
// deterministic properties of the modeled hardware — they never change with
// the machine running the benchmark, the -benchtime setting, or engine
// optimizations (any refactor of internal/sim must keep them bit-identical).
// Wall-clock numbers (ns/op here, and events/sec in the internal/sim suite)
// measure the simulator substrate itself and bound how many scenarios a
// sweep can cover per core-hour.
//
// The substrate has its own microbenchmark suite (event throughput,
// park/dispatch latency, condition-broadcast storms):
//
//	go test ./internal/sim -bench=BenchmarkEngine -benchmem
//
// with tracked before/after numbers in BENCH_sim.json.
//
// For full sweeps and paper-style tables use `paperbench -run <names>`
// (e.g. -run fig7,fig11,fig13); its independent
// simulations fan out across GOMAXPROCS-bounded workers (see
// benchkit.Parallel) with byte-identical output to a sequential run.
package mscclpp

import (
	"fmt"
	"testing"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/collective"
	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/inference"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/moe"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// benchSizes is a compressed size grid (full grid in paperbench -run fig7).
var benchSmall = []int64{1 << 10, 32 << 10, 1 << 20}
var benchLarge = []int64{16 << 20, 256 << 20}

func reportSweep(b *testing.B, env *topology.Env, fn benchkit.MeasureFn, sizes []int64, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, size := range sizes {
			d, _, err := fn(env, size)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				if metric == "us" {
					b.ReportMetric(float64(d)/1000, fmt.Sprintf("us@%s", benchkit.HumanSize(size)))
				} else {
					b.ReportMetric(float64(size)/float64(d), fmt.Sprintf("GBps@%s", benchkit.HumanSize(size)))
				}
			}
		}
	}
}

// BenchmarkTable1P2P reproduces Table 1: primitive peer-to-peer performance.
func BenchmarkTable1P2P(b *testing.B) {
	b.Run("NVLinkThroughput", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
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
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(size)/float64(m.Now()-m.Model.KernelLaunch), "GBps")
			}
		}
	})
	b.Run("IBLatency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := machine.New(topology.H100(2))
			c := core.NewCommunicator(m)
			src, dst := m.Alloc(0, "src", 4), m.Alloc(8, "dst", 4)
			ch0, ch1 := c.NewPortChannelPairEx(0, 8, src, dst, dst, src)
			var lat sim.Duration
			m.GPUs[0].Kernel("s", 1, func(k *machine.Kernel) { ch0.PutWithSignal(k, 0, 0, 4, 0, 1) }).Start()
			m.GPUs[8].Kernel("r", 1, func(k *machine.Kernel) {
				t0 := k.Now()
				ch1.Wait(k)
				lat = k.Now() - t0
			}).Start()
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(lat)/1000, "us")
			}
		}
	})
}

// BenchmarkFig7AllReduceA100 reproduces Figure 7 (AllReduce, A100-40G).
func BenchmarkFig7AllReduceA100(b *testing.B) {
	for _, nodes := range []int{1, 2} {
		for _, lib := range []struct {
			name string
			fn   benchkit.MeasureFn
		}{{"NCCL", benchkit.NCCLAllReduce}, {"MSCCL", benchkit.MSCCLAllReduce}, {"MSCCLPP", benchkit.MSCCLPPAllReduce}} {
			b.Run(fmt.Sprintf("%dn/%s/small", nodes, lib.name), func(b *testing.B) {
				reportSweep(b, topology.A100_40G(nodes), lib.fn, benchSmall, "us")
			})
			b.Run(fmt.Sprintf("%dn/%s/large", nodes, lib.name), func(b *testing.B) {
				reportSweep(b, topology.A100_40G(nodes), lib.fn, benchLarge, "GBps")
			})
		}
	}
}

// BenchmarkFig8AllGatherA100 reproduces Figure 8 (AllGather, A100-40G).
func BenchmarkFig8AllGatherA100(b *testing.B) {
	for _, lib := range []struct {
		name string
		fn   benchkit.MeasureFn
	}{{"NCCL", benchkit.NCCLAllGather}, {"MSCCL", benchkit.MSCCLAllGather}, {"MSCCLPP", benchkit.MSCCLPPAllGather}} {
		b.Run("1n/"+lib.name+"/small", func(b *testing.B) {
			reportSweep(b, topology.A100_40G(1), lib.fn, benchSmall, "us")
		})
		b.Run("1n/"+lib.name+"/large", func(b *testing.B) {
			reportSweep(b, topology.A100_40G(1), lib.fn, benchLarge, "GBps")
		})
	}
}

// BenchmarkFig9AllReduceH100 reproduces Figure 9 (AllReduce, H100, NVLS).
func BenchmarkFig9AllReduceH100(b *testing.B) {
	for _, lib := range []struct {
		name string
		fn   benchkit.MeasureFn
	}{{"NCCL", benchkit.NCCLAllReduce}, {"MSCCL", benchkit.MSCCLAllReduce}, {"MSCCLPP", benchkit.MSCCLPPAllReduce}} {
		b.Run(lib.name+"/small", func(b *testing.B) {
			reportSweep(b, topology.H100(1), lib.fn, benchSmall, "us")
		})
		b.Run(lib.name+"/large", func(b *testing.B) {
			reportSweep(b, topology.H100(1), lib.fn, benchLarge, "GBps")
		})
	}
}

// BenchmarkFig10AllReduceMI300x reproduces Figure 10 (AllReduce, MI300x).
func BenchmarkFig10AllReduceMI300x(b *testing.B) {
	for _, lib := range []struct {
		name string
		fn   benchkit.MeasureFn
	}{{"RCCL", benchkit.NCCLAllReduce}, {"MSCCL", benchkit.MSCCLAllReduce}, {"MSCCLPP", benchkit.MSCCLPPAllReduce}} {
		b.Run(lib.name+"/small", func(b *testing.B) {
			reportSweep(b, topology.MI300x(1), lib.fn, benchSmall, "us")
		})
		b.Run(lib.name+"/large", func(b *testing.B) {
			reportSweep(b, topology.MI300x(1), lib.fn, benchLarge, "GBps")
		})
	}
}

// BenchmarkFig11VLLMDecode reproduces Figure 11 (Llama3-70B decode speedup).
func BenchmarkFig11VLLMDecode(b *testing.B) {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	env := envFn()
	model := inference.Llama3x70B(8)
	nccl := inference.NewARTimer(envFn, inference.LibNCCL)
	mpp := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	for i := 0; i < b.N; i++ {
		var sps []float64
		for _, bsz := range []int{1, 8, 64} {
			tN := inference.DecodeStep(env, model, bsz, 512, nccl.Time)
			tM := inference.DecodeStep(env, model, bsz, 512, mpp.Time)
			sps = append(sps, inference.Speedup(tN, tM))
		}
		if i == 0 {
			b.ReportMetric(benchkit.Geomean(sps), "speedup")
		}
	}
}

// BenchmarkFig12SGLangDecode reproduces Figure 12 (DeepSeek-V3 decode).
func BenchmarkFig12SGLangDecode(b *testing.B) {
	envFn := func() *topology.Env { return topology.H100(2) }
	env := envFn()
	model := inference.DeepSeekV3(16)
	nccl := inference.NewARTimer(envFn, inference.LibNCCL)
	mpp := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	for i := 0; i < b.N; i++ {
		var sps []float64
		var tput float64
		for _, bsz := range []int{1, 16, 64} {
			tN := inference.DecodeStep(env, model, bsz, 1024, nccl.Time)
			tM := inference.DecodeStep(env, model, bsz, 1024, mpp.Time)
			sps = append(sps, inference.Speedup(tN, tM))
			tput = inference.DecodeThroughput(bsz, tM)
		}
		if i == 0 {
			b.ReportMetric(benchkit.Geomean(sps), "speedup")
			b.ReportMetric(tput, "tok/s@64")
		}
	}
}

// BenchmarkFig13DeepEP reproduces Figure 13 (expert-parallel dispatch and
// combine bandwidth, MSCCL++ vs NVSHMEM-IBGDA).
func BenchmarkFig13DeepEP(b *testing.B) {
	for _, tr := range []moe.Transport{moe.TransportMSCCLPP, moe.TransportIBGDA} {
		b.Run(string(tr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := moe.New(moe.Paper13Env(), moe.DefaultConfig(), tr)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Dispatch(16384)
				if err != nil {
					b.Fatal(err)
				}
				resC, err := e.Combine(16384)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.AlgoBWGBs, "dispatchGBps")
					b.ReportMetric(resC.AlgoBWGBs, "combineGBps")
				}
			}
		})
	}
}

// BenchmarkDSLvsPrimitive reproduces the §7.1 comparison: the same algorithm
// authored in the DSL (interpreted by the Executor) vs hand-written against
// the Primitive API.
func BenchmarkDSLvsPrimitive(b *testing.B) {
	const size = 64 << 10
	for i := 0; i < b.N; i++ {
		prog, err := dsl.BuildAllReduce1PA(8, size, 2)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := prog.Lower()
		if err != nil {
			b.Fatal(err)
		}
		mD := machine.New(topology.A100_40G(1))
		mD.MaterializeLimit = 0
		inst, err := executor.New(core.NewCommunicator(mD), pl, allocPair(mD, size), allocPair2(mD, size))
		if err != nil {
			b.Fatal(err)
		}
		var dslT sim.Duration
		for it := 0; it < 2; it++ {
			start := mD.Engine.Now()
			inst.Launch()
			if err := mD.Run(); err != nil {
				b.Fatal(err)
			}
			dslT = mD.Engine.Now() - start
		}
		mP := machine.New(topology.A100_40G(1))
		mP.MaterializeLimit = 0
		cP := collective.New(mP)
		ex, err := (&collective.AllReduce1PA{TB: 2}).Prepare(cP, allocPair(mP, size), allocPair2(mP, size))
		if err != nil {
			b.Fatal(err)
		}
		var primT sim.Duration
		for it := 0; it < 2; it++ {
			if primT, err = cP.Run(ex); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			b.ReportMetric(float64(dslT-primT)/float64(primT)*100, "overhead%")
		}
	}
}

func allocPair(m *machine.Machine, size int64) []*mem.Buffer {
	var out []*mem.Buffer
	for r := 0; r < len(m.GPUs); r++ {
		out = append(out, m.Alloc(r, "a", size))
	}
	return out
}

func allocPair2(m *machine.Machine, size int64) []*mem.Buffer {
	var out []*mem.Buffer
	for r := 0; r < len(m.GPUs); r++ {
		out = append(out, m.Alloc(r, "b", size))
	}
	return out
}

// BenchmarkAblationChannels reproduces the §7.1/§7.2 gain-breakdown
// ablations: LL vs HB one-phase, PortChannel vs MemoryChannel ring, and
// SwitchChannel vs MemoryChannel.
func BenchmarkAblationChannels(b *testing.B) {
	measure := func(b *testing.B, env *topology.Env, algo collective.Algorithm, size int64) sim.Duration {
		m := machine.New(env)
		m.MaterializeLimit = 0
		c := collective.New(m)
		ex, err := algo.Prepare(c, allocPair(m, size), allocPair2(m, size))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(ex); err != nil {
			b.Fatal(err)
		}
		d, err := c.Run(ex)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("LLvsHB1KB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ll := measure(b, topology.A100_40G(1), &collective.AllReduce1PA{}, 1<<10)
			hb := measure(b, topology.A100_40G(1), &collective.AllReduce1PAHB{}, 1<<10)
			if i == 0 {
				b.ReportMetric((1-float64(ll)/float64(hb))*100, "latencyCut%")
			}
		}
	})
	b.Run("PortVsMemoryRing256MB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			port := measure(b, topology.A100_40G(1), &collective.AllReduce2PR{}, 256<<20)
			memv := measure(b, topology.A100_40G(1), &collective.AllReduce2PR{UseMemoryChannel: true}, 256<<20)
			if i == 0 {
				b.ReportMetric((float64(memv)/float64(port)-1)*100, "portGain%")
			}
		}
	})
	b.Run("SwitchVsMemory256MB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw := measure(b, topology.H100(1), &collective.AllReduce2PASwitch{}, 256<<20)
			mc := measure(b, topology.H100(1), &collective.AllReduce2PAHB{}, 256<<20)
			if i == 0 {
				b.ReportMetric((float64(mc)/float64(sw)-1)*100, "switchGain%")
			}
		}
	})
}
