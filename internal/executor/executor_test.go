package executor

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mscclpp/internal/collective"
	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/plan"
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

// runPlan executes a lowered program iters times on one instance and
// returns the elapsed time per run. Every launch must take the first one's
// virtual time: relaunching a plan leaks no state into timing, so the
// DSL-vs-primitive comparison may time a single launch.
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
	var first sim.Duration
	for it := 0; it < iters; it++ {
		start := m.Engine.Now()
		inst.Launch()
		if err := m.Run(); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if d := m.Engine.Now() - start; it == 0 {
			first = d
		} else if d != first {
			t.Fatalf("iter %d took %d ns, first launch %d ns", it, d, first)
		}
		if verify != nil {
			if err := verify(out); err != nil {
				t.Fatalf("iter %d: %v", it, err)
			}
		}
	}
	return first
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

// TestExecutorReducePutOpBuffers runs a fused reduce_put whose chunks are
// not the channel's bound buffers (Input(0) -> scratch on rank 1): the sums
// must land in the op's destination, Output(1).
func TestExecutorReducePutOpBuffers(t *testing.T) {
	const size = 4096
	p := dsl.NewProgram("reduce-put", "test", 8, 1, size, size)
	ch := p.MemoryChannel(0, 1, p.Input(0), p.ScratchBuffer(1, size))
	acc := p.Output(0).Whole()
	acc.Copy(p.Input(0).Whole(), 0)
	acc.Reduce(p.Input(0).Whole(), 0)
	ch.Put(p.Output(1).Whole(), acc, 0)
	ch.Signal(0)
	ch.Wait(0)
	runPlan(t, topology.A100_40G(1), p, size, 1, func(out []*mem.Buffer) error {
		return out[1].EqualFloat32(func(i int64) float32 { return 2 * pattern(0, i) }, 1e-5)
	})
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Programs[0][0]; !slices.ContainsFunc(got, func(op plan.Op) bool { return op.Code == plan.OpReducePut }) {
		t.Fatalf("rank 0 ops %v hold no reduce_put", got)
	}
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

// TestExecutorRejectsHostilePlans checks that New returns an error, and
// does not panic, for plans the executor cannot run: buffer references
// off the plan's ranks or to undeclared scratch, unknown ops, operands an
// op cannot reach or of different sizes, bad thread-block group shards,
// and switch channels the machine cannot map.
func TestExecutorRejectsHostilePlans(t *testing.T) {
	input := func(r int) plan.BufRef { return plan.BufRef{Kind: plan.BufInput, Rank: r} }
	output := func(r int) plan.BufRef { return plan.BufRef{Kind: plan.BufOutput, Rank: r} }
	chunk := func(b plan.BufRef) plan.Chunk { return plan.Chunk{Buf: b, Size: 256} }
	memCh := func(src, dst plan.BufRef) []plan.Channel {
		return []plan.Channel{{ID: 0, Type: plan.ChanMemory, SrcRank: 0, DstRank: 1, SrcBuf: src, DstBuf: dst}}
	}
	swCh := func(ranks ...int) []plan.Channel {
		ch := plan.Channel{ID: 0, Type: plan.ChanSwitch, Ranks: ranks}
		for _, r := range ranks {
			ch.Bufs = append(ch.Bufs, output(r))
		}
		return []plan.Channel{ch}
	}
	copy0 := plan.Op{Code: plan.OpLocalCopy, Dst: chunk(output(0)), Src: chunk(input(0))}
	cases := []struct {
		name     string
		env      *topology.Env
		channels []plan.Channel
		op       plan.Op // run by rank 0
	}{
		{"chunk on rank 9", topology.A100_40G(1), nil, plan.Op{Code: plan.OpLocalCopy, Dst: chunk(output(0)), Src: chunk(input(9))}},
		{"channel bound to rank 9's input", topology.A100_40G(1), memCh(input(9), input(1)), copy0},
		{"channel bound to undeclared scratch", topology.A100_40G(1),
			memCh(input(0), plan.BufRef{Kind: plan.BufScratch, Rank: 1, Index: 2}), copy0},
		{"unknown op", topology.A100_40G(1), nil, plan.Op{Code: "teleport"}},
		{"local_copy into rank 1's output", topology.A100_40G(1), nil, plan.Op{Code: plan.OpLocalCopy, Dst: chunk(output(1)), Src: chunk(input(0))}},
		{"put reading the destination rank", topology.A100_40G(1), memCh(input(0), input(1)),
			plan.Op{Code: plan.OpPut, Dst: chunk(input(1)), Src: chunk(input(1))}},
		{"local_copy of 1024 bytes into a 256-byte chunk", topology.A100_40G(1), nil, plan.Op{Code: plan.OpLocalCopy,
			Dst: plan.Chunk{Buf: output(0), Off: 768, Size: 256}, Src: plan.Chunk{Buf: input(0), Size: 1024}}},
		{"group rank past group size", topology.A100_40G(1), nil, plan.Op{Code: plan.OpLocalCopy, Dst: copy0.Dst, Src: copy0.Src, GroupRank: 2, GroupSize: 2}},
		{"switch channel without multicast", topology.A100_40G(1), swCh(0, 1), copy0},
		{"switch channel across nodes", topology.H100(2), swCh(0, 8), copy0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := machine.New(c.env)
			n := len(m.GPUs)
			pl := &plan.Plan{Name: c.name, Ranks: n, NumTB: 1, InSize: 1024, OutSize: 1024,
				Channels: c.channels, Programs: make([][][]plan.Op, n)}
			for r := range pl.Programs {
				pl.Programs[r] = [][]plan.Op{nil}
			}
			pl.Programs[0][0] = []plan.Op{c.op}
			in, out := setupBufs(m, 1024)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("New panicked: %v", p)
				}
			}()
			if _, err := New(core.NewCommunicator(m), pl, in, out); err == nil {
				t.Fatal("New accepted the plan")
			}
		})
	}
}

// TestRelaunchDeadlockNamesCurrentFlag: the LL flag semaphores of one
// invocation are recycled for the next, renumbered. With rank 0's packet
// puts taken out of the DSL 1PA plan after a good first invocation, the
// second one deadlocks, and every peer blocked on rank 0's packets is
// reported on that invocation's flag, not the first one's.
func TestRelaunchDeadlockNamesCurrentFlag(t *testing.T) {
	const size = 8192
	prog, err := dsl.BuildAllReduce1PA(8, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prog.Lower()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(topology.A100_40G(1))
	in, out := setupBufs(m, size)
	inst, err := New(core.NewCommunicator(m), pl, in, out)
	if err != nil {
		t.Fatal(err)
	}
	inst.Launch()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var flag uint64 // the flag rank 0's packets carry
	for b, ops := range pl.Programs[0] {
		pl.Programs[0][b] = slices.DeleteFunc(ops, func(op plan.Op) bool {
			if op.Code == plan.OpPutPackets {
				flag = op.Flag
				return true
			}
			return false
		})
	}
	inst.Launch()
	de, ok := m.Run().(*sim.DeadlockError)
	if !ok {
		t.Fatal("second invocation without rank 0's puts: want a deadlock")
	}
	second := fmt.Sprintf("/flag%d)", pl.MaxFlag+1+flag)
	fromRank0 := 0
	for _, b := range de.Blocked {
		if strings.Contains(b, "/ll/0->") {
			fromRank0++
			if !strings.HasSuffix(b, second) {
				t.Errorf("blocked %q, want it on the second invocation's flag (%s)", b, second)
			}
		}
	}
	if fromRank0 == 0 {
		t.Fatalf("no block waits on rank 0's packets: %v", de.Blocked)
	}
}
