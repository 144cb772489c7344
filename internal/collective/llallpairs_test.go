package collective

import (
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// TestLLAllPairsEvents pins the engine events and the virtual duration of
// one invocation of every algorithm with an LL all-pairs phase, on
// materialized buffers whose outputs are checked. The LL phase's packet
// puts, own-share copy and per-peer await+reduce/copy run in a fixed order;
// a reordering or an extra sleep moves these counts. An in-place call skips
// the own-share copy, so in-place 1PA runs 32 fewer events than out of
// place: one copy per rank and thread block.
func TestLLAllPairsEvents(t *testing.T) {
	const kb = 1 << 10
	allReduced := func(out []*mem.Buffer) error { return CheckAllReduce(out, pattern, 1e-4) }
	scattered := func(out []*mem.Buffer) error { return CheckReduceScatter(out, pattern, 1e-4) }
	gathered := func(out []*mem.Buffer) error { return CheckAllGather(out, 32*kb, pattern, 0) }
	for _, tc := range []struct {
		env     *topology.Env
		algo    Algorithm
		in, out int64 // per-rank bytes
		inPlace bool  // out[r] is in[r]
		check   func(out []*mem.Buffer) error
		events  uint64
		virt    sim.Duration
	}{
		{topology.H100(1), &AllReduce1PA{}, 64 * kb, 64 * kb, false, allReduced, 1224, 16952},
		{topology.H100(1), &AllReduce1PA{}, 64 * kb, 64 * kb, true, allReduced, 1192, 16952},
		{topology.H100(1), &AllReduce2PALL{}, 1 << 20, 1 << 20, false, allReduced, 4744, 31794},
		{topology.H100(1), &ReduceScatterAllPairsLL{}, 256 * kb, 32 * kb, false, scattered, 920, 12153},
		{topology.H100(1), &AllGatherAllPairsLL{}, 32 * kb, 256 * kb, false, gathered, 920, 11040},
		{topology.A100_40G(2), &AllReduce2PHLL{}, 1 << 20, 1 << 20, false, allReduced, 5120, 71319},
	} {
		name := tc.algo.Name()
		if tc.inPlace {
			name += "/in-place"
		}
		t.Run(name, func(t *testing.T) {
			m := machine.New(tc.env)
			m.MaterializeLimit = 1 << 40
			c := New(m)
			in := make([]*mem.Buffer, c.Ranks())
			out := make([]*mem.Buffer, c.Ranks())
			for r := range in {
				in[r] = m.Alloc(r, "in", tc.in)
				out[r] = in[r]
				if !tc.inPlace {
					out[r] = m.Alloc(r, "out", tc.out)
				}
			}
			FillInputs(in, pattern)
			ex, err := tc.algo.Prepare(c, in, out)
			if err != nil {
				t.Fatal(err)
			}
			before := m.Engine.EventsRun()
			d, err := c.Run(ex)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.check(out); err != nil {
				t.Fatal(err)
			}
			if got := m.Engine.EventsRun() - before; got != tc.events || d != tc.virt {
				t.Fatalf("ran %d events in %d ns, want %d events in %d ns", got, d, tc.events, tc.virt)
			}
		})
	}
}
