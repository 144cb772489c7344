package fabric

import (
	"testing"

	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

func newFabric(env *topology.Env) *Fabric {
	return New(env, timing.Default(env))
}

// TestReserveJoint: a joint reservation starts when the *last* of its
// resources frees up and occupies all of them for the full duration.
func TestReserveJoint(t *testing.T) {
	a := sim.NewResource("a")
	b := sim.NewResource("b")
	a.Reserve(0, 100) // a busy until 100
	start, end := sim.ReserveJoint(30, 50, a, b)
	if start != 100 || end != 150 {
		t.Fatalf("joint reservation = [%d, %d], want [100, 150]", start, end)
	}
	if a.FreeAt() != 150 || b.FreeAt() != 150 {
		t.Fatalf("resources free at %d/%d, want 150/150", a.FreeAt(), b.FreeAt())
	}
	// A later request serializes behind the joint occupancy.
	s2, e2 := sim.ReserveJoint(0, 10, b)
	if s2 != 150 || e2 != 160 {
		t.Fatalf("follow-up = [%d, %d], want [150, 160]", s2, e2)
	}
}

// TestP2PSerializes: two back-to-back transfers over the same switch path
// serialize on the port resources — the second completes one wire-time
// later, never in parallel for free.
func TestP2PSerializes(t *testing.T) {
	env := topology.A100_40G(1)
	f := newFabric(env)
	const size = 1 << 20
	streamBW := 1e12 // not the bottleneck
	t1 := f.P2P(0, 0, 1, size, streamBW)
	t2 := f.P2P(0, 0, 1, size, streamBW)
	wire := timing.XferTime(size, env.IntraBW)
	if want := wire + env.IntraLat; t1 != want {
		t.Fatalf("first transfer completes at %d, want %d", t1, want)
	}
	if want := 2*wire + env.IntraLat; t2 != want {
		t.Fatalf("second transfer completes at %d, want %d (serialized)", t2, want)
	}
	// Disjoint pairs do not contend.
	f2 := newFabric(env)
	u1 := f2.P2P(0, 0, 1, size, streamBW)
	u2 := f2.P2P(0, 2, 3, size, streamBW)
	if u1 != u2 {
		t.Fatalf("disjoint pairs serialized: %d vs %d", u1, u2)
	}
}

// TestP2PStreamBound: when the issuing thread blocks are slower than the
// wire, completion stretches to the stream rate but wire occupancy stays at
// wire time (a following flow starts after the wire slot, not the stream).
func TestP2PStreamBound(t *testing.T) {
	env := topology.A100_40G(1)
	f := newFabric(env)
	const size = 1 << 20
	slow := env.IntraBW / 4
	done := f.P2P(0, 0, 1, size, slow)
	if want := timing.XferTime(size, slow) + env.IntraLat; done != want {
		t.Fatalf("stream-bound completion %d, want %d", done, want)
	}
	next := f.P2P(0, 0, 1, size, 1e12)
	wire := timing.XferTime(size, env.IntraBW)
	if want := 2*wire + env.IntraLat; next != want {
		t.Fatalf("wire occupancy: next completes at %d, want %d", next, want)
	}
}

// TestP2PMeshPath: on a mesh env each directed pair owns its own link at
// PeerBW, so opposite directions and different pairs run concurrently.
func TestP2PMeshPath(t *testing.T) {
	env := topology.MI300x(1)
	f := newFabric(env)
	const size = 1 << 20
	fast := 1e12
	fwd := f.P2P(0, 0, 1, size, fast)
	rev := f.P2P(0, 1, 0, size, fast)
	if fwd != rev {
		t.Fatalf("mesh directions contend: %d vs %d", fwd, rev)
	}
	if want := timing.XferTime(size, env.PeerBW()) + env.IntraLat; fwd != want {
		t.Fatalf("mesh transfer completes at %d, want %d (PeerBW)", fwd, want)
	}
}

// TestBookingAllocFree: P2P and DMA bookings allocate nothing on a switch
// fabric (egress + ingress ports) or on a mesh fabric (one xGMI link), nor
// do the three NVLS switch bookings on H100; the resource path lives in a
// local array.
func TestBookingAllocFree(t *testing.T) {
	for _, env := range []*topology.Env{topology.A100_40G(1), topology.MI300x(1)} {
		f := newFabric(env)
		var now sim.Time
		if n := testing.AllocsPerRun(100, func() { now = f.P2P(now, 0, 1, 1<<20, 1e12) }); n != 0 {
			t.Errorf("%s: P2P allocates %v objects per booking, want 0", env.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { now = f.DMA(now, 2, 3, 1<<20) }); n != 0 {
			t.Errorf("%s: DMA allocates %v objects per booking, want 0", env.Name, n)
		}
	}
	f := newFabric(topology.H100(1))
	var now sim.Time
	for name, book := range map[string]func(){
		"SwitchReduce":          func() { now = f.SwitchReduce(now, 3, 1<<20, 1e12) },
		"SwitchBroadcast":       func() { now = f.SwitchBroadcast(now, 3, 1<<20, 1e12) },
		"SwitchReduceBroadcast": func() { now = f.SwitchReduceBroadcast(now, 3, 1<<20, 1e12) },
	} {
		if n := testing.AllocsPerRun(100, book); n != 0 {
			t.Errorf("H100: %s allocates %v objects per booking, want 0", name, n)
		}
	}
}

// TestP2PCrossNodePanics: P2P is intra-node only.
func TestP2PCrossNodePanics(t *testing.T) {
	f := newFabric(topology.A100_40G(2))
	defer func() {
		if recover() == nil {
			t.Fatal("P2P across nodes did not panic")
		}
	}()
	f.P2P(0, 0, 8, 1024, 1e12)
}

// TestDMA: the engine runs at min(DMABW, link), completion includes both
// link and DMA initiation latencies, and consecutive DMAs on one engine
// serialize.
func TestDMA(t *testing.T) {
	env := topology.A100_40G(1)
	f := newFabric(env)
	const size = 8 << 20
	bw := env.DMABW
	if bw > env.IntraBW {
		bw = env.IntraBW
	}
	wire := timing.XferTime(size, bw)
	d1 := f.DMA(0, 0, 1, size)
	if want := wire + env.IntraLat + env.DMALat; d1 != want {
		t.Fatalf("DMA completes at %d, want %d", d1, want)
	}
	d2 := f.DMA(0, 0, 1, size)
	if want := 2*wire + env.IntraLat + env.DMALat; d2 != want {
		t.Fatalf("second DMA completes at %d, want %d (engine serialized)", d2, want)
	}
}

// TestRDMA: NIC queues serialize per endpoint but distinct NIC pairs run
// concurrently; completion adds the IB latency.
func TestRDMA(t *testing.T) {
	env := topology.A100_40G(2)
	f := newFabric(env)
	const size = 1 << 20
	wire := timing.XferTime(size, env.IBBW)
	r1 := f.RDMA(0, 0, 8, size)
	if want := wire + env.IBLat; r1 != want {
		t.Fatalf("RDMA completes at %d, want %d", r1, want)
	}
	r2 := f.RDMA(0, 0, 9, size) // same sender NIC -> serializes on nicTx
	if want := 2*wire + env.IBLat; r2 != want {
		t.Fatalf("same-sender RDMA completes at %d, want %d", r2, want)
	}
	r3 := f.RDMA(0, 1, 10, size) // disjoint NICs -> concurrent
	if r3 != r1 {
		t.Fatalf("disjoint RDMA completes at %d, want %d", r3, r1)
	}
}

// TestSignalLatency picks the intra-node store latency inside a node and
// the IB latency across nodes.
func TestSignalLatency(t *testing.T) {
	env := topology.A100_40G(2)
	f := newFabric(env)
	if got := f.SignalLatency(0, 1); got != env.IntraLat {
		t.Errorf("intra-node signal latency %d, want %d", got, env.IntraLat)
	}
	if got := f.SignalLatency(0, 8); got != env.IBLat {
		t.Errorf("inter-node signal latency %d, want %d", got, env.IBLat)
	}
}

// TestSwitchOps: switch-mapped reductions occupy every member egress port
// (a second op serializes behind the first), and envs without multicast
// panic instead of silently mispricing.
func TestSwitchOps(t *testing.T) {
	env := topology.H100(1)
	f := newFabric(env)
	if !f.HasSwitch() {
		t.Fatal("H100 fabric should expose switch-mapped I/O")
	}
	const size = 1 << 20
	fast := 1e12
	wire := timing.XferTime(size, env.SwitchBW)
	s1 := f.SwitchReduce(0, 0, size, fast)
	if want := wire + env.SwitchLat; s1 != want {
		t.Fatalf("SwitchReduce completes at %d, want %d", s1, want)
	}
	// Rank 1's reduce reads every member egress too, so it contends.
	s2 := f.SwitchReduce(0, 1, size, fast)
	if want := 2*wire + env.SwitchLat; s2 != want {
		t.Fatalf("second SwitchReduce completes at %d, want %d", s2, want)
	}

	plain := newFabric(topology.A100_40G(1))
	if plain.HasSwitch() {
		t.Fatal("A100 fabric should not expose switch-mapped I/O")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SwitchReduce without multicast did not panic")
		}
	}()
	plain.SwitchReduce(0, 0, size, fast)
}

// TestReset returns every resource to idle so a fresh repetition sees a
// cold fabric.
func TestReset(t *testing.T) {
	env := topology.H100(2)
	f := newFabric(env)
	f.P2P(0, 0, 1, 1<<20, 1e12)
	f.DMA(0, 2, 3, 1<<20)
	f.RDMA(0, 0, 8, 1<<20)
	f.SwitchReduce(0, 4, 1<<20, 1e12)
	f.Reset()
	for _, rs := range [][]*sim.Resource{f.egress, f.ingress, f.dma, f.nicTx, f.nicRx, f.switchPipe, f.mesh} {
		for _, r := range rs {
			if r == nil {
				continue
			}
			if r.FreeAt() != 0 || r.BusyTime() != 0 || r.Reservations() != 0 {
				t.Fatalf("resource %s not reset: freeAt=%d busy=%d reserves=%d",
					r.Name, r.FreeAt(), r.BusyTime(), r.Reservations())
			}
		}
	}
}
