package collective

import (
	"testing"

	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/moe"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// TestPrimitiveWakes pins, per kernel, the virtual duration, the engine
// events and the process wakes of a relaunch on virtual buffers: the second
// invocation of a prepared MSCCL++ AllReduce, of a lowered DSL plan through
// the executor, and of a MoE dispatch over IBGDA. A thread block queues its
// Primitive API calls on its Kernel, and the kernel runs each call's steps
// as engine Actions where the block would have woken, so the events and
// the duration stay those of a block that woke once per call (twice per
// call for a DSL op, whose dispatch sleeps first) while the block itself
// wakes at its start and once more when its queue drains, or once more per
// clock read (the IBGDA put's Kernel.Now). A change that moves virtual time
// or the event order fails the first two columns, and one that wakes a
// block per call again fails the third.
func TestPrimitiveWakes(t *testing.T) {
	const mb = 1 << 20
	// algo prepares a on env with size-byte virtual buffers.
	algo := func(env *topology.Env, a Algorithm, size int64) func(t *testing.T) (*sim.Engine, func() (sim.Duration, error)) {
		return func(t *testing.T) (*sim.Engine, func() (sim.Duration, error)) {
			m := machine.New(env)
			m.MaterializeLimit = 0
			c := New(m)
			in, out := virtualBufs(m, size)
			ex, err := a.Prepare(c, in, out)
			if err != nil {
				t.Fatal(err)
			}
			return m.Engine, func() (sim.Duration, error) { return c.Run(ex) }
		}
	}
	for _, tc := range []struct {
		name   string
		setup  func(t *testing.T) (*sim.Engine, func() (sim.Duration, error))
		virt   sim.Duration
		events uint64
		wakes  uint64
	}{
		{"mscclpp-2PA-HB", algo(topology.A100_80G(1), &AllReduce2PAHB{}, 4*mb), 67865, 3048, 128},
		{"mscclpp-2PA-LL", algo(topology.A100_80G(1), &AllReduce2PALL{}, 256<<10), 15781, 2968, 80},
		{"mscclpp-2PA-Switch", algo(topology.H100(1), &AllReduce2PASwitch{}, 4*mb), 24161, 940, 256},
		{"mscclpp-2PH-HB", algo(topology.A100_40G(2), &AllReduce2PHHB{}, 4*mb), 160464, 5224, 128},
		{"mscclpp-2PH-LL", algo(topology.A100_40G(2), &AllReduce2PHLL{}, 256<<10), 65865, 1456, 32},
		{"mscclpp-2PR-Port", algo(topology.A100_40G(1), &AllReduce2PR{}, 4*mb), 141026, 3360, 64},
		// The serve pricing fill's 16 KB size.
		{"mscclpp-1PA-LL", algo(topology.A100_80G(1), &AllReduce1PA{}, 16<<10), 7728, 920, 48},
		{"dsl-2PA-HB", func(t *testing.T) (*sim.Engine, func() (sim.Duration, error)) {
			const size = 1 * mb
			prog, err := dsl.BuildAllReduce2PAHB(8, size, 2)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := prog.Lower()
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(topology.A100_40G(1))
			m.MaterializeLimit = 0
			in, out := virtualBufs(m, size)
			x, err := executor.New(core.NewCommunicator(m), pl, in, out)
			if err != nil {
				t.Fatal(err)
			}
			return m.Engine, func() (sim.Duration, error) {
				start := m.Now()
				x.Launch()
				err := m.Run()
				return m.Now() - start, err
			}
		}, 67319, 1560, 32},
		{"moe-dispatch-ibgda", func(t *testing.T) (*sim.Engine, func() (sim.Duration, error)) {
			e, err := moe.New(topology.H100(2), moe.DefaultConfig(), moe.TransportIBGDA)
			if err != nil {
				t.Fatal(err)
			}
			return e.M.Engine, func() (sim.Duration, error) {
				res, err := e.Dispatch(512)
				return res.Elapsed, err
			}
		}, 42533, 952, 272},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, run := tc.setup(t)
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			events, wakes := e.EventsRun(), e.Wakes()
			d, err := run()
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

// virtualBufs allocates an input and an output buffer of size bytes on
// every rank of m.
func virtualBufs(m *machine.Machine, size int64) (in, out []*mem.Buffer) {
	in = make([]*mem.Buffer, len(m.GPUs))
	out = make([]*mem.Buffer, len(m.GPUs))
	for r := range in {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	return in, out
}
