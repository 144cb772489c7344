package executor

import (
	"testing"

	"mscclpp/internal/collective"
	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func pattern(r int, i int64) float32 {
	return float32(r+1) + float32(i%11)*0.125
}

func setupBufs(m *machine.Machine, size int64) (in, out []*mem.Buffer) {
	n := len(m.GPUs)
	for r := 0; r < n; r++ {
		in = append(in, m.Alloc(r, "in", size))
		out = append(out, m.Alloc(r, "out", size))
	}
	collective.FillInputs(in, pattern)
	return in, out
}

// runPlan executes a lowered program and returns the elapsed time per run.
func runPlan(t *testing.T, env *topology.Env, prog *dsl.Program, size int64, iters int,
	verify func(out []*mem.Buffer) error) sim.Duration {
	t.Helper()
	pl, err := prog.Lower()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(env)
	m.MaterializeLimit = 1 << 40
	c := core.NewCommunicator(m)
	in, out := setupBufs(m, size)
	inst, err := New(c, pl, in, out)
	if err != nil {
		t.Fatal(err)
	}
	var last sim.Duration
	for it := 0; it < iters; it++ {
		start := m.Engine.Now()
		inst.Launch()
		if err := m.Run(); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		last = m.Engine.Now() - start
		if verify != nil {
			if err := verify(out); err != nil {
				t.Fatalf("iter %d: %v", it, err)
			}
		}
	}
	return last
}

func TestExecutorAllReduce1PA(t *testing.T) {
	const size = 8192
	prog, err := dsl.BuildAllReduce1PA(8, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	runPlan(t, topology.A100_40G(1), prog, size, 3, func(out []*mem.Buffer) error {
		return collective.CheckAllReduce(out, pattern, 1e-4)
	})
}

func TestExecutorAllReduce2PAHB(t *testing.T) {
	const size = 1 << 20
	prog, err := dsl.BuildAllReduce2PAHB(8, size, 4)
	if err != nil {
		t.Fatal(err)
	}
	runPlan(t, topology.A100_40G(1), prog, size, 2, func(out []*mem.Buffer) error {
		return collective.CheckAllReduce(out, pattern, 1e-4)
	})
}

// TestExecutorSwitchAllReduce runs a two-phase switch AllReduce authored
// with the DSL's switch channel on H100: each rank multimem-ld_reduces its
// slice of the input group into its own output, device-syncs, then
// multimem-stores that slice to every rank's output. Every element of
// every output is checked.
func TestExecutorSwitchAllReduce(t *testing.T) {
	const ranks, numTB = 8, 2
	const size = 256 << 10
	const slice = size / ranks
	p := dsl.NewProgram("dsl-2PA-Switch", "allreduce", ranks, numTB, size, size)
	all := make([]int, ranks)
	ins := make([]*dsl.Buffer, ranks)
	outs := make([]*dsl.Buffer, ranks)
	for r := range all {
		all[r], ins[r], outs[r] = r, p.Input(r), p.Output(r)
	}
	inGrp := p.SwitchChannelOver(all, ins)
	outGrp := p.SwitchChannelOver(all, outs)
	grp := dsl.TBGroup{First: 0, Size: numTB}
	for r := 0; r < ranks; r++ {
		my := int64(r) * slice
		mine := p.Output(r).Chunk(my, slice)
		inGrp.Reduce(r, mine, my, slice, 0, grp)
		p.DeviceSync(r)
		outGrp.Broadcast(r, my, mine, 0, grp)
	}
	runPlan(t, topology.H100(1), p, size, 2, func(out []*mem.Buffer) error {
		return collective.CheckAllReduce(out, pattern, 1e-4)
	})
}

// TestExecutorFigure6RingRS validates the paper's Figure 6 program: after
// the ReduceScatter, rank r's working buffer (output) holds chunk (r+1)%N
// fully reduced.
func TestExecutorFigure6RingRS(t *testing.T) {
	const size = 64 << 10
	const ranks = 8
	chunk := int64(size / ranks)
	prog, err := dsl.BuildRingReduceScatter(ranks, size)
	if err != nil {
		t.Fatal(err)
	}
	runPlan(t, topology.A100_40G(1), prog, size, 1, func(out []*mem.Buffer) error {
		for r := 0; r < ranks; r++ {
			owned := int64((r + 1) % ranks)
			base := owned * chunk / 4 // element offset of the owned chunk
			want := func(i int64) float32 {
				var s float32
				for p := 0; p < ranks; p++ {
					s += pattern(p, base+i)
				}
				return s
			}
			// Verify only the owned chunk region.
			probe := out[r]
			for el := int64(0); el < chunk/4; el += 37 {
				got := probe.Float32(owned*chunk + el*4)
				w := want(el)
				d := got - w
				if d < 0 {
					d = -d
				}
				if d > 1e-3*w && d > 1e-3 {
					t.Fatalf("rank %d chunk elem %d = %v, want %v", r, el, got, w)
				}
			}
		}
		return nil
	})
}

// TestDSLvsPrimitiveOverhead reproduces §7.1: the DSL-executed algorithm is
// slightly slower than the direct Primitive API implementation (~3%
// average, bounded well below 25%).
func TestDSLvsPrimitiveOverhead(t *testing.T) {
	const size = 64 << 10
	prog, err := dsl.BuildAllReduce1PA(8, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	dslT := runPlan(t, topology.A100_40G(1), prog, size, 2, nil)

	// Primitive version.
	m := machine.New(topology.A100_40G(1))
	c := collective.New(m)
	in, out := setupBufs(m, size)
	ex, err := (&collective.AllReduce1PA{TB: 2}).Prepare(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	var primT sim.Duration
	for i := 0; i < 2; i++ {
		primT, err = c.Run(ex)
		if err != nil {
			t.Fatal(err)
		}
	}
	if dslT < primT {
		t.Fatalf("DSL (%d) faster than primitive (%d): dispatch cost missing", dslT, primT)
	}
	overhead := float64(dslT-primT) / float64(primT)
	if overhead > 0.25 {
		t.Fatalf("DSL overhead %.1f%% too large (dsl=%d prim=%d)", overhead*100, dslT, primT)
	}
	t.Logf("DSL=%dns primitive=%dns overhead=%.1f%%", dslT, primT, overhead*100)
}

func TestExecutorValidation(t *testing.T) {
	prog, err := dsl.BuildAllReduce1PA(8, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prog.Lower()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong machine size.
	m2 := machine.New(topology.A100_40G(2))
	if _, err := New(core.NewCommunicator(m2), pl, nil, nil); err == nil {
		t.Fatal("expected rank-count error")
	}
	// Wrong buffer sizes.
	m := machine.New(topology.A100_40G(1))
	c := core.NewCommunicator(m)
	in, out := setupBufs(m, 8192) // plan expects 4096
	if _, err := New(c, pl, in, out); err == nil {
		t.Fatal("expected buffer-size error")
	}
}
