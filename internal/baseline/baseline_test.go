// Package baseline_test verifies the NCCL-sim and MSCCL-sim baseline
// libraries for numerical correctness and for the structural performance
// relationships the paper's gain breakdown relies on.
package baseline_test

import (
	"fmt"
	"testing"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func pattern(r int, i int64) float32 {
	return float32(r+1) + float32(i%7)*0.5
}

func setup(t *testing.T, env *topology.Env, size int64, materialize bool) (*collective.Comm, []*mem.Buffer, []*mem.Buffer) {
	t.Helper()
	m := machine.New(env)
	if materialize {
		m.MaterializeLimit = 1 << 40
	} else {
		m.MaterializeLimit = 0
	}
	c := collective.New(m)
	n := c.Ranks()
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	collective.FillInputs(in, pattern)
	return c, in, out
}

func runExec(t *testing.T, c *collective.Comm, ex *collective.Exec) sim.Duration {
	t.Helper()
	d, err := c.Run(ex)
	if err != nil {
		t.Fatalf("%s: %v", ex.Name, err)
	}
	return d
}

func TestTwoSidedConnBasics(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 1 << 40
	src := m.Alloc(0, "src", 8192)
	dst := m.Alloc(1, "dst", 8192)
	src.FillPattern(func(i int64) float32 { return float32(i) })
	conn := twosided.NewConn(m, 0, 1, twosided.Config{Chunk: 2048})
	m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
		twosided.Exchange(k, []twosided.Leg{{Conn: conn, Buf: src, N: 8192}}, nil)
	}).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		twosided.Exchange(k, nil, []twosided.Leg{{Conn: conn, Buf: dst, N: 8192}})
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dst.EqualFloat32(func(i int64) float32 { return float32(i) }, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSidedBackpressure(t *testing.T) {
	// A slow receiver must throttle the sender via slot rendezvous without
	// deadlock or data loss.
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 1 << 40
	const size = 64 << 10
	src := m.Alloc(0, "src", size)
	dst := m.Alloc(1, "dst", size)
	src.FillFloat32(2)
	conn := twosided.NewConn(m, 0, 1, twosided.Config{Chunk: 1024, Slots: 2})
	m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
		twosided.Exchange(k, []twosided.Leg{{Conn: conn, Buf: src, N: size}}, nil)
	}).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		for off := int64(0); off < size; off += 1024 {
			k.Elapse(5000) // slow consumer
			twosided.Exchange(k, nil, []twosided.Leg{{Conn: conn, Buf: dst, Off: off, N: 1024}})
		}
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dst.EqualFloat32(func(int64) float32 { return 2 }, 0); err != nil {
		t.Fatal(err)
	}
}

// Legs of unequal length in one Exchange: rank 0 sends 3.5 chunks to rank 1
// while it receives and reduces 1 chunk from rank 1; rank 1 runs the mirror
// image, copying what it receives. With 2 slots per conn the long leg
// outlasts the FIFO, so the pipeline must keep draining the short side's
// windows without deadlock, and a second run on the same conns must take
// the same virtual time.
func TestExchangeUnequalLegs(t *testing.T) {
	const chunk, long, short = 1024, 3584, 1024
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 1 << 40
	cfg := twosided.Config{Chunk: chunk, Slots: 2}
	c01 := twosided.NewConn(m, 0, 1, cfg)
	c10 := twosided.NewConn(m, 1, 0, cfg)
	src0 := m.Alloc(0, "src0", long)
	acc0 := m.Alloc(0, "acc0", short)
	src1 := m.Alloc(1, "src1", short)
	dst1 := m.Alloc(1, "dst1", long)
	src0.FillPattern(func(i int64) float32 { return float32(i) })
	src1.FillPattern(func(i int64) float32 { return float32(2 * i) })
	run := func() sim.Duration {
		acc0.FillFloat32(1)
		dst1.FillFloat32(0)
		start := m.Engine.Now()
		m.GPUs[0].Kernel("r0", 1, func(k *machine.Kernel) {
			twosided.Exchange(k,
				[]twosided.Leg{{Conn: c01, Buf: src0, N: long}},
				[]twosided.Leg{{Conn: c10, Buf: acc0, N: short, Reduce: true}})
		}).Start()
		m.GPUs[1].Kernel("r1", 1, func(k *machine.Kernel) {
			twosided.Exchange(k,
				[]twosided.Leg{{Conn: c10, Buf: src1, N: short}},
				[]twosided.Leg{{Conn: c01, Buf: dst1, N: long}})
		}).Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := dst1.EqualFloat32(func(i int64) float32 { return float32(i) }, 0); err != nil {
			t.Fatalf("copy leg: %v", err)
		}
		if err := acc0.EqualFloat32(func(i int64) float32 { return 1 + float32(2*i) }, 0); err != nil {
			t.Fatalf("reduce leg: %v", err)
		}
		return m.Engine.Now() - start
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("second run took %d ns, first %d ns", second, first)
	}
}

func TestNCCLRingAllReduceCorrect(t *testing.T) {
	for _, env := range []*topology.Env{topology.A100_40G(1), topology.MI300x(1), topology.A100_40G(2)} {
		for _, proto := range []twosided.Proto{twosided.ProtoSimple, twosided.ProtoLL} {
			c, in, out := setup(t, env, 256<<10, true)
			lib := ncclsim.New(c, 4)
			ex, err := lib.PrepareAllReduceRing(in, out, proto)
			if err != nil {
				t.Fatal(err)
			}
			runExec(t, c, ex)
			if err := collective.CheckAllReduce(out, pattern, 1e-4); err != nil {
				t.Fatalf("%s %s %s: %v", env.Name, proto, ex.Name, err)
			}
		}
	}
}

func TestNCCLTreeAllReduceCorrect(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		c, in, out := setup(t, topology.A100_40G(nodes), 32<<10, true)
		lib := ncclsim.New(c, 4)
		ex, err := lib.PrepareAllReduceTree(in, out, twosided.ProtoLL)
		if err != nil {
			t.Fatal(err)
		}
		runExec(t, c, ex)
		if err := collective.CheckAllReduce(out, pattern, 1e-4); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
	}
}

func TestNCCLAllGatherCorrect(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 1 << 40
	c := collective.New(m)
	n := c.Ranks()
	shard := int64(32 << 10)
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", shard)
		out[r] = m.Alloc(r, "out", shard*int64(n))
	}
	collective.FillInputs(in, pattern)
	lib := ncclsim.New(c, 4)
	ex, err := lib.PrepareAllGatherRing(in, out, twosided.ProtoSimple)
	if err != nil {
		t.Fatal(err)
	}
	runExec(t, c, ex)
	if err := collective.CheckAllGather(out, shard, pattern, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMSCCLAllPairs1PCorrect(t *testing.T) {
	c, in, out := setup(t, topology.A100_40G(1), 8<<10, true)
	lib := mscclsim.New(c, 4)
	ex, err := lib.PrepareAllReduceAllPairs1P(in, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		runExec(t, c, ex)
		if err := collective.CheckAllReduce(out, pattern, 1e-4); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
}

func TestMSCCLAllPairs2PCorrect(t *testing.T) {
	for _, proto := range []twosided.Proto{twosided.ProtoSimple, twosided.ProtoLL} {
		c, in, out := setup(t, topology.A100_40G(1), 512<<10, true)
		lib := mscclsim.New(c, 4)
		ex, err := lib.PrepareAllReduceAllPairs2P(in, out, proto)
		if err != nil {
			t.Fatal(err)
		}
		runExec(t, c, ex)
		if err := collective.CheckAllReduce(out, pattern, 1e-4); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func TestMSCCLHierCorrect(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		c, in, out := setup(t, topology.A100_40G(nodes), 2<<20, true)
		lib := mscclsim.New(c, 4)
		ex, err := lib.PrepareAllReduceHier(in, out, twosided.ProtoSimple)
		if err != nil {
			t.Fatal(err)
		}
		runExec(t, c, ex)
		if err := collective.CheckAllReduce(out, pattern, 1e-4); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
	}
}

func TestMSCCLAllGatherCorrect(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 1 << 40
	c := collective.New(m)
	n := c.Ranks()
	shard := int64(16 << 10)
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", shard)
		out[r] = m.Alloc(r, "out", shard*int64(n))
	}
	collective.FillInputs(in, pattern)
	lib := mscclsim.New(c, 4)
	ex, err := lib.PrepareAllGatherAllPairs(in, out, twosided.ProtoLL)
	if err != nil {
		t.Fatal(err)
	}
	runExec(t, c, ex)
	if err := collective.CheckAllGather(out, shard, pattern, 0); err != nil {
		t.Fatal(err)
	}
}

// Repeated invocations of one prepared baseline Exec take the same virtual
// time and keep producing correct results, so the measurement helpers may
// time a single run. Covers every baseline AllReduce the inference pricing
// can pick: NCCL-sim ring and tree and MSCCL-sim all-pairs and hierarchical,
// each protocol, at 2-3 sizes (LL and one-phase stop at 4 MB). Inputs up to
// 512 KB carry real data and are checked after every run.
func TestBaselineRepeatedInvocation(t *testing.T) {
	type prep func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error)
	type tc struct {
		name    string
		env     func() *topology.Env
		prep    prep
		latency bool // LL or one-phase: capped at 4 MB
	}
	one := func() *topology.Env { return topology.A100_40G(1) }
	two := func() *topology.Env { return topology.A100_40G(2) }
	var cases []tc
	for _, proto := range []twosided.Proto{twosided.ProtoLL, twosided.ProtoSimple} {
		p := proto
		ll := p == twosided.ProtoLL
		ring := func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, p)
		}
		cases = append(cases,
			tc{"nccl-ring-" + p.String() + "-1n8g", one, ring, ll},
			tc{"nccl-ring-" + p.String() + "-2n16g", two, ring, ll},
			tc{"nccl-tree-" + p.String() + "-2n16g", two, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, p)
			}, ll},
			tc{"msccl-allpairs2p-" + p.String() + "-1n8g", one, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceAllPairs2P(in, out, p)
			}, ll},
			tc{"msccl-hier-" + p.String() + "-2n16g", two, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, p)
			}, ll},
		)
	}
	cases = append(cases, tc{"msccl-allpairs1p-1n8g", one, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return mscclsim.New(c, 0).PrepareAllReduceAllPairs1P(in, out)
	}, true})
	for _, cse := range cases {
		for _, size := range []int64{32 << 10, 512 << 10, 16 << 20} {
			if cse.latency && size > 4<<20 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", cse.name, size), func(t *testing.T) {
				check := size <= 512<<10
				c, in, out := setup(t, cse.env(), size, check)
				ex, err := cse.prep(c, in, out)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				first := runExec(t, c, ex)
				for i := 2; i <= 3; i++ {
					if d := runExec(t, c, ex); d != first {
						t.Fatalf("run %d took %d ns, first run %d ns", i, d, first)
					}
					if !check {
						continue
					}
					if err := collective.CheckAllReduce(out, pattern, 1e-4); err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
				}
			})
		}
	}
}

// Paper gain breakdown, small messages: MSCCL (all-pairs over two-sided)
// beats NCCL (ring), and MSCCL++ 1PA beats MSCCL (~47% latency cut at 1KB).
func TestGainBreakdownSmall(t *testing.T) {
	size := int64(1 << 10)

	cN, inN, outN := setup(t, topology.A100_40G(1), size, false)
	exN, err := ncclsim.New(cN, 2).PrepareAllReduceRing(inN, outN, twosided.ProtoLL)
	if err != nil {
		t.Fatal(err)
	}
	tNCCL := runExec(t, cN, exN)

	cM, inM, outM := setup(t, topology.A100_40G(1), size, false)
	exM, err := mscclsim.New(cM, 2).PrepareAllReduceAllPairs1P(inM, outM)
	if err != nil {
		t.Fatal(err)
	}
	tMSCCL := runExec(t, cM, exM)

	cP, inP, outP := setup(t, topology.A100_40G(1), size, false)
	exP, err := (&collective.AllReduce1PA{}).Prepare(cP, inP, outP)
	if err != nil {
		t.Fatal(err)
	}
	tPP, err := cP.Run(exP)
	if err != nil {
		t.Fatal(err)
	}

	if tMSCCL >= tNCCL {
		t.Errorf("MSCCL 1KB latency %d >= NCCL %d (better algorithm should win)", tMSCCL, tNCCL)
	}
	if tPP >= tMSCCL {
		t.Errorf("MSCCL++ 1KB latency %d >= MSCCL %d (better primitives should win)", tPP, tMSCCL)
	}
	t.Logf("1KB AllReduce latency: NCCL=%dns MSCCL=%dns MSCCL++=%dns", tNCCL, tMSCCL, tPP)
}

// Large messages: MSCCL++ 2PR must beat the NCCL ring (zero staging copy,
// DMA engines, overlap).
func TestGainBreakdownLarge(t *testing.T) {
	size := int64(64 << 20)

	cN, inN, outN := setup(t, topology.A100_40G(1), size, false)
	exN, err := ncclsim.New(cN, 12).PrepareAllReduceRing(inN, outN, twosided.ProtoSimple)
	if err != nil {
		t.Fatal(err)
	}
	tNCCL := runExec(t, cN, exN)

	cP, inP, outP := setup(t, topology.A100_40G(1), size, false)
	exP, err := (&collective.AllReduce2PR{}).Prepare(cP, inP, outP)
	if err != nil {
		t.Fatal(err)
	}
	tPP, err := cP.Run(exP)
	if err != nil {
		t.Fatal(err)
	}
	if tPP >= tNCCL {
		t.Errorf("MSCCL++ 64MB (%d) >= NCCL (%d)", tPP, tNCCL)
	}
	t.Logf("64MB AllReduce: NCCL=%dus MSCCL++=%dus (%.2fx)",
		tNCCL/1000, tPP/1000, float64(tNCCL)/float64(tPP))
}
