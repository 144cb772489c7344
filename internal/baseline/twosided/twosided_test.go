package twosided_test

import (
	"errors"
	"reflect"
	"testing"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// TestRecvWakeOrder builds the one tie the single receive sleep can decide
// differently from a wake-up sleep followed by a copy sleep: an event
// scheduled inside the wake-up window for the receive's return instant.
// The receive takes its return event when its data arrives, before the
// probe is scheduled, so it returns first; with two sleeps the probe would
// have fired first.
func TestRecvWakeOrder(t *testing.T) {
	const n = 64 << 10
	// run sends one chunk 0 -> 1; when probeAt > 0, an event at probeAt
	// schedules a probe at the receive's return instant ret.
	run := func(probeAt, ret sim.Time) (done sim.Time, order []string) {
		m := machine.New(topology.A100_40G(1))
		c := twosided.NewConn(m, 0, 1, twosided.Config{})
		src, dst := m.Alloc(0, "src", n), m.Alloc(1, "dst", n)
		m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
			twosided.Exchange(k, []twosided.Leg{{Conn: c, Buf: src, N: n}}, nil)
		}).Start()
		m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
			twosided.Exchange(k, nil, []twosided.Leg{{Conn: c, Buf: dst, N: n}})
			done = k.Now()
			order = append(order, "recv")
		}).Start()
		if probeAt > 0 {
			m.Engine.At(probeAt, func() {
				m.Engine.At(ret, func() { order = append(order, "probe") })
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return done, order
	}
	ret, _ := run(0, 0)
	model := timing.Default(topology.A100_40G(1))
	copyCost := timing.XferTime(n, model.StagingCopyBWPerTB) + model.BaselineProtoOverhead/2
	woke := ret - model.SemWaitWake - copyCost // the receive's data arrival
	done, order := run(woke+model.SemWaitWake/2, ret)
	if done != ret {
		t.Fatalf("probe moved the receive from %d to %d ns", ret, done)
	}
	if want := []string{"recv", "probe"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order at %d ns = %v, want %v", ret, order, want)
	}
}

// allReduceEvents counts the engine events of one 4 MB AllReduce on
// A100-40G 2n16g with virtual buffers, built by prepare.
func allReduceEvents(t *testing.T, prepare func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error)) uint64 {
	t.Helper()
	const size = 4 << 20
	m := machine.New(topology.A100_40G(2))
	m.MaterializeLimit = 0
	c := collective.New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := range in {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	ex, err := prepare(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Engine.EventsRun()
	if _, err := c.Run(ex); err != nil {
		t.Fatal(err)
	}
	return m.Engine.EventsRun() - before
}

// TestRingAllReduceEvents pins the engine events of one 4 MB NCCL-sim ring
// AllReduce (Simple) on A100-40G 2n16g. A receive used to sleep twice,
// once to wake and once to copy out of the staging slot, and the same run
// took 40,720 events; one sleep per receive takes 34,960. Landing a chunk
// through machine.Land instead of a closure moves no event, and neither
// does running the exchange as an Action instead of a parked process.
func TestRingAllReduceEvents(t *testing.T) {
	got := allReduceEvents(t, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, twosided.ProtoSimple)
	})
	if want := uint64(34960); got != want {
		t.Fatalf("ring AllReduce ran %d events, want %d", got, want)
	}
}

// TestTreeAllReduceEvents pins the engine events of one 4 MB NCCL-sim
// tree AllReduce (Simple) on A100-40G 2n16g: whole-buffer legs, one leg
// per Exchange call, across both node levels.
func TestTreeAllReduceEvents(t *testing.T) {
	got := allReduceEvents(t, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, twosided.ProtoSimple)
	})
	if want := uint64(1488); got != want {
		t.Fatalf("tree AllReduce ran %d events, want %d", got, want)
	}
}

// TestHierAllReduceEvents pins the engine events of one 4 MB MSCCL-sim
// hierarchical AllReduce (Simple) on A100-40G 2n16g: many legs per
// Exchange call, with grid barriers between the phases.
func TestHierAllReduceEvents(t *testing.T) {
	got := allReduceEvents(t, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, twosided.ProtoSimple)
	})
	if want := uint64(5168); got != want {
		t.Fatalf("hierarchical AllReduce ran %d events, want %d", got, want)
	}
}

// TestExchangeDeadlockNamesSemaphore checks that a kernel parked in an
// Exchange that can never finish is reported blocked on the slot
// semaphore it waits for, not on the exchange: a sender whose receiver
// never runs exhausts its ProtoSimple slots and waits for space, and a
// receiver with no sender waits for data.
func TestExchangeDeadlockNamesSemaphore(t *testing.T) {
	const chunk = 4 << 10
	for _, tc := range []struct {
		name, want string
		send, recv bool // launch the sending rank 0, the receiving rank 1
	}{
		{"no receiver", "send/gpu0/tb0 (semaphore ts.space/0->1)", true, false},
		{"no sender", "recv/gpu1/tb0 (semaphore ts.data/0->1)", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(topology.A100_40G(1))
			c := twosided.NewConn(m, 0, 1, twosided.Config{Slots: 2, Chunk: chunk})
			if tc.send {
				src := m.Alloc(0, "src", 3*chunk)
				m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
					twosided.Exchange(k, []twosided.Leg{{Conn: c, Buf: src, N: src.Size()}}, nil)
				}).Start()
			}
			if tc.recv {
				dst := m.Alloc(1, "dst", chunk)
				m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
					twosided.Exchange(k, nil, []twosided.Leg{{Conn: c, Buf: dst, N: dst.Size()}})
				}).Start()
			}
			var dl *sim.DeadlockError
			if err := m.Run(); !errors.As(err, &dl) {
				t.Fatalf("Run = %v, want a *sim.DeadlockError", err)
			}
			if want := []string{tc.want}; !reflect.DeepEqual(dl.Blocked, want) {
				t.Fatalf("blocked = %q, want %q", dl.Blocked, want)
			}
		})
	}
}
