package twosided_test

import (
	"reflect"
	"testing"

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
		m.GPUs[0].Launch("send", 1, func(k *machine.Kernel) {
			twosided.Exchange(k, []twosided.Leg{{Conn: c, Buf: src, N: n}}, nil)
		})
		m.GPUs[1].Launch("recv", 1, func(k *machine.Kernel) {
			twosided.Exchange(k, nil, []twosided.Leg{{Conn: c, Buf: dst, N: n}})
			done = k.Now()
			order = append(order, "recv")
		})
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

// TestRingAllReduceEvents pins the engine events of one 4 MB NCCL-sim ring
// AllReduce (Simple) on A100-40G 2n16g. A receive used to sleep twice,
// once to wake and once to copy out of the staging slot, and the same run
// took 40,720 events; one sleep per receive takes 34,960. Landing a chunk
// through machine.Land instead of a closure moves no event.
func TestRingAllReduceEvents(t *testing.T) {
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
	ex, err := ncclsim.New(c, 0).PrepareAllReduceRing(in, out, twosided.ProtoSimple)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Engine.EventsRun()
	if _, err := c.Run(ex); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Engine.EventsRun()-before, uint64(34960); got != want {
		t.Fatalf("ring AllReduce ran %d events, want %d", got, want)
	}
}
