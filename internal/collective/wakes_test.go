package collective

import (
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// TestPrimitiveWakes pins, per MSCCL++ AllReduce, the virtual duration, the
// engine events and the process wakes of the second invocation of a
// prepared Exec on virtual buffers. A Primitive API call books its transfer
// in an Action on the block's step record (machine.Kernel.Issue), so the
// block wakes once per call while the events and the duration stay those of
// a block that slept twice: a change that moves virtual time or the event
// order fails the first two columns, and one that puts a second wake back
// into a primitive fails the third.
func TestPrimitiveWakes(t *testing.T) {
	const mb = 1 << 20
	for _, tc := range []struct {
		env    *topology.Env
		algo   Algorithm
		size   int64
		virt   sim.Duration
		events uint64
		wakes  uint64
	}{
		{topology.A100_80G(1), &AllReduce2PAHB{}, 4 * mb, 67865, 3048, 1328},
		{topology.A100_80G(1), &AllReduce2PALL{}, 256 << 10, 15781, 2968, 1760},
		{topology.H100(1), &AllReduce2PASwitch{}, 4 * mb, 24161, 940, 864},
		{topology.A100_40G(2), &AllReduce2PHHB{}, 4 * mb, 160464, 5224, 2368},
		{topology.A100_40G(2), &AllReduce2PHLL{}, 256 << 10, 65865, 1456, 832},
		{topology.A100_40G(1), &AllReduce2PR{}, 4 * mb, 141026, 3360, 2328},
	} {
		t.Run(tc.algo.Name(), func(t *testing.T) {
			m := machine.New(tc.env)
			m.MaterializeLimit = 0
			c := New(m)
			in := make([]*mem.Buffer, c.Ranks())
			out := make([]*mem.Buffer, c.Ranks())
			for r := range in {
				in[r] = m.Alloc(r, "in", tc.size)
				out[r] = m.Alloc(r, "out", tc.size)
			}
			ex, err := tc.algo.Prepare(c, in, out)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(ex); err != nil {
				t.Fatal(err)
			}
			e := m.Engine
			events, wakes := e.EventsRun(), e.Wakes()
			d, err := c.Run(ex)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]uint64{uint64(d), e.EventsRun() - events, e.Wakes() - wakes}
			if want := [3]uint64{uint64(tc.virt), tc.events, tc.wakes}; got != want {
				t.Errorf("duration/events/wakes = %d/%d/%d, want %d/%d/%d",
					got[0], got[1], got[2], want[0], want[1], want[2])
			}
		})
	}
}
