package machine

import (
	"fmt"
	"strings"
	"testing"

	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

func TestNewMachineShape(t *testing.T) {
	m := New(topology.A100_40G(2))
	if len(m.GPUs) != 16 {
		t.Fatalf("got %d GPUs, want 16", len(m.GPUs))
	}
	g := m.GPUs[11]
	if g.Rank != 11 || g.Node != 1 || g.Local != 3 {
		t.Fatalf("gpu11 = %+v", g)
	}
}

func TestAllocMaterialization(t *testing.T) {
	m := New(topology.H100(1))
	small := m.Alloc(0, "small", 1024)
	if !small.Materialized() {
		t.Fatal("small buffer should be materialized")
	}
	big := m.Alloc(0, "big", 1<<30)
	if big.Materialized() {
		t.Fatal("1GB buffer should be virtual")
	}
	m.MaterializeLimit = 1 << 40
	big2 := m.Alloc(0, "big2", 64<<20)
	if !big2.Materialized() {
		t.Fatal("raised limit should materialize")
	}
}

func TestAllocInvalidRankPanics(t *testing.T) {
	m := New(topology.H100(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Alloc(8, "oob", 16)
}

func TestKernelLaunchOverheadAndJoin(t *testing.T) {
	m := New(topology.A100_40G(1))
	var blockStart sim.Time
	m.GPUs[0].Kernel("k", 4, func(k *Kernel) {
		if k.Block == 0 {
			blockStart = k.Now()
		}
		k.Elapse(sim.Duration(100 * (k.Block + 1)))
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	launch := m.Model.KernelLaunch
	if blockStart != launch {
		t.Fatalf("block started at %d, want launch overhead %d", blockStart, launch)
	}
	// Run returns when the last block (400 ns of work) has finished.
	if now := m.Now(); now != launch+400 {
		t.Fatalf("kernel ended at %d, want %d", now, launch+400)
	}
}

// TestLaunchAll: a kernel prepared on every rank starts all its blocks,
// ranks in launch order.
func TestLaunchAll(t *testing.T) {
	m := New(topology.A100_40G(1))
	var starts []int
	m.Kernel("all", 2, func(k *Kernel, rank int) {
		if rank != k.GPU.Rank || k.NumBlocks != 2 {
			t.Errorf("block %d of rank %d ran with rank %d and %d blocks", k.Block, k.GPU.Rank, rank, k.NumBlocks)
		}
		starts = append(starts, rank)
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Both blocks of every rank start, ranks in launch order.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7}
	if fmt.Sprint(starts) != fmt.Sprint(want) {
		t.Fatalf("blocks started by rank %v, want %v", starts, want)
	}
}

func TestGridBarrier(t *testing.T) {
	m := New(topology.A100_40G(1))
	const blocks = 8
	var after [blocks]sim.Time
	m.GPUs[0].Kernel("bar", blocks, func(k *Kernel) {
		// Stagger arrival.
		k.Elapse(sim.Duration(10 * k.Block))
		k.GridBarrier()
		after[k.Block] = k.Now()
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Everyone leaves the barrier no earlier than the last arrival.
	lastArrival := m.Model.KernelLaunch + 10*(blocks-1)
	for b, tm := range after {
		if tm < lastArrival {
			t.Fatalf("block %d left barrier at %d before last arrival %d", b, tm, lastArrival)
		}
	}
}

func TestGridBarrierReusable(t *testing.T) {
	m := New(topology.A100_40G(1))
	const blocks, rounds = 4, 5
	counts := make([]int, blocks)
	m.GPUs[0].Kernel("bar", blocks, func(k *Kernel) {
		for r := 0; r < rounds; r++ {
			k.Elapse(sim.Duration(k.Block + 1))
			k.GridBarrier()
			counts[k.Block]++
		}
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for b, c := range counts {
		if c != rounds {
			t.Fatalf("block %d completed %d rounds, want %d", b, c, rounds)
		}
	}
}

// TestGridBarrierAllocFree: a prepared kernel keeps its blocks, their
// processes and its grid barrier, and a barrier wait holds its generation
// threshold inline, so relaunching a 4-block kernel allocates nothing,
// whether it crosses one barrier or nine.
func TestGridBarrierAllocFree(t *testing.T) {
	m := New(topology.A100_40G(1))
	for _, barriers := range []int{1, 9} {
		crossed := 0
		l := m.GPUs[0].Kernel("bar", 4, func(k *Kernel) {
			for i := 0; i < barriers; i++ {
				k.Elapse(sim.Duration(k.Block + 1))
				k.GridBarrier()
				crossed++
			}
		})
		allocs := testing.AllocsPerRun(20, func() {
			l.Start()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a relaunch crossing %d barriers allocates %v objects, want 0", barriers, allocs)
		}
		// AllocsPerRun adds a warm-up run to the 20.
		if want := 21 * 4 * barriers; crossed != want {
			t.Errorf("blocks crossed %d barriers in 21 launches, want %d", crossed, want)
		}
	}
}

// TestRelaunchOrdersLikeFirstLaunch: a relaunch starts every block again
// at its launch time, in block order, with the first launch's event count.
func TestRelaunchOrdersLikeFirstLaunch(t *testing.T) {
	m := New(topology.A100_40G(1))
	var log []string
	l := m.Kernel("k", 2, func(k *Kernel, rank int) {
		if rank < 2 {
			log = append(log, fmt.Sprintf("%s@%d", k.P.Name, k.Now()))
		}
		k.Elapse(100)
	})
	var events [2]uint64
	var logs [2]string
	for i := range events {
		log = nil
		start, before := m.Now(), m.Engine.EventsRun()
		l.Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		events[i] = m.Engine.EventsRun() - before
		logs[i] = fmt.Sprint(log)
		if want := fmt.Sprintf("[k/gpu0/tb0@%[1]d k/gpu0/tb1@%[1]d k/gpu1/tb0@%[1]d k/gpu1/tb1@%[1]d]",
			start+m.Model.KernelLaunch); logs[i] != want {
			t.Fatalf("launch %d started %s, want %s", i+1, logs[i], want)
		}
	}
	if events[1] != events[0] {
		t.Fatalf("relaunch ran %d events, first launch %d", events[1], events[0])
	}
}

// TestStartWhileLivePanics: starting a kernel whose previous launch left a
// block blocked panics with the block's name and schedules nothing.
func TestStartWhileLivePanics(t *testing.T) {
	m := New(topology.A100_40G(1))
	never := sim.NewSemaphore(m.Engine, "never")
	l := m.GPUs[0].Kernel("stuck", 2, func(k *Kernel) {
		if k.Block == 1 {
			never.WaitGE(k.P, 1)
		}
	})
	l.Start()
	if _, ok := m.Run().(*sim.DeadlockError); !ok {
		t.Fatal("first launch: want a deadlock")
	}
	before := m.Engine.EventsRun()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "stuck/gpu0/tb1") {
			t.Fatalf("panic %q, want one naming stuck/gpu0/tb1", msg)
		}
		if err := m.Run(); err == nil || m.Engine.EventsRun() != before {
			t.Fatalf("after the refused start: Run = %v, %d events, want the deadlock and none", err, m.Engine.EventsRun()-before)
		}
	}()
	l.Start()
}

// TestQueuedAwaitDeadlockNamesSemaphore: a block whose queued wait is
// never satisfied is reported blocked on that wait's semaphore, although
// the block itself waits for its queue to drain and the wait was queued
// behind a sleep rather than started by the block.
func TestQueuedAwaitDeadlockNamesSemaphore(t *testing.T) {
	m := New(topology.A100_40G(1))
	never := sim.NewSemaphore(m.Engine, "never")
	m.GPUs[0].Kernel("blk", 1, func(k *Kernel) {
		k.Elapse(10)
		k.Await(never, 1, 0)
		k.Elapse(10)
	}).Start()
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "1 process(es) blocked: blk/gpu0/tb0 (semaphore never)") {
		t.Fatalf("Run = %v, want blk/gpu0/tb0 blocked on semaphore never", err)
	}
	if want := m.Model.KernelLaunch + 10; m.Now() != want {
		t.Fatalf("deadlocked at %d, want %d", m.Now(), want)
	}
}

// TestStartWhileQueuePendingPanics: a block whose body has returned but
// whose queue a deadlocked run left pending is still live, so starting its
// kernel again panics with its name and schedules nothing.
func TestStartWhileQueuePendingPanics(t *testing.T) {
	m := New(topology.A100_40G(1))
	never := sim.NewSemaphore(m.Engine, "never")
	returned := 0
	l := m.GPUs[0].Kernel("pending", 1, func(k *Kernel) {
		k.Elapse(10)
		k.Await(never, 1, 0)
		returned++
	})
	l.Start()
	if _, ok := m.Run().(*sim.DeadlockError); !ok || returned != 1 {
		t.Fatalf("first launch: want a deadlock after the body returned (%d times)", returned)
	}
	before := m.Engine.EventsRun()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "pending/gpu0/tb0") {
			t.Fatalf("panic %q, want one naming pending/gpu0/tb0", msg)
		}
		if err := m.Run(); err == nil || m.Engine.EventsRun() != before {
			t.Fatalf("after the refused start: Run = %v, %d events, want the deadlock and none", err, m.Engine.EventsRun()-before)
		}
	}()
	l.Start()
}

// TestBodyDataAccessWaitsForQueue: a body that reads or writes buffer data
// between its queued calls first waits for them, so it sees the data and
// the clock a block woken from its last call would have; with its queue
// empty it goes on without a wake, and a landing's data move in event
// context waits for nothing.
func TestBodyDataAccessWaitsForQueue(t *testing.T) {
	m := New(topology.H100(1))
	a, b := m.Alloc(0, "a", 16), m.Alloc(0, "b", 16)
	a.FillFloat32(1)
	b.FillFloat32(2)
	var got float32
	var at sim.Time
	m.GPUs[0].Kernel("body", 1, func(k *Kernel) {
		k.Elapse(100)
		k.ReduceShard(a, 0, b, 0, 16, 0, 1)
		got, at = a.Float32(0), k.P.Now()
		a.SetFloat32(4, 10)
		k.CopyShard(b, 0, a, 0, 16, 0, 1)
	}).Start()
	wakes := m.Engine.Wakes()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("a[0] read after the reduce = %g, want 3", got)
	}
	k := &Kernel{GPU: m.GPUs[0]}
	if want := m.Model.KernelLaunch + 100 + k.localReduceTime(16, 1); at != want {
		t.Errorf("read at %d, want %d (after the reduce)", at, want)
	}
	if v := b.Float32(4); v != 10 {
		t.Errorf("b[1] after the copy = %g, want 10 (the body's write)", v)
	}
	// Start, the read's wait and the final drain behind the copy.
	if n := m.Engine.Wakes() - wakes; n != 3 {
		t.Errorf("%d wakes, want 3", n)
	}
}

// TestLandAllocFree: once the free list is warm, a copy landing that bumps a
// semaphore and an accumulate landing allocate nothing, and both apply
// their data movement and semaphore bump at their time.
func TestLandAllocFree(t *testing.T) {
	m := New(topology.A100_40G(1))
	src := m.Alloc(0, "src", 64)
	dst := m.Alloc(1, "dst", 64)
	src.FillFloat32(2)
	sem := sim.NewSemaphore(m.Engine, "landed")
	var landedAt sim.Time
	land := func() {
		dst.FillFloat32(1)
		now := m.Now()
		m.Land(now+10, Landing{Op: LandCopy, Dst: dst, Src: src, N: 32, Sem: sem, SemAdd: 3})
		m.Land(now+20, Landing{Op: LandAccumulate, Dst: dst, DstOff: 32, Src: src, SrcOff: 32, N: 32})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		landedAt = m.Now() - now
	}
	land() // warm the free list
	if n := testing.AllocsPerRun(100, land); n != 0 {
		t.Fatalf("two warm landings allocate %v objects, want 0", n)
	}
	if landedAt != 20 {
		t.Fatalf("last landing fired %d ns after issue, want 20", landedAt)
	}
	if got, want := sem.Value(), uint64(3*102); got != want {
		t.Fatalf("semaphore = %d after 102 copy landings, want %d", got, want)
	}
	if err := dst.EqualFloat32(func(i int64) float32 {
		if i < 8 {
			return 2 // copied
		}
		return 3 // 1 + 2 accumulated
	}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchZeroBlocksPanics(t *testing.T) {
	m := New(topology.A100_40G(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.GPUs[0].Kernel("bad", 0, func(k *Kernel) {}).Start()
}

func TestFabricP2PTiming(t *testing.T) {
	m := New(topology.H100(1))
	f := m.Fabric
	// Single 1 MB transfer at full link speed.
	size := int64(1 << 20)
	done := f.P2P(0, 0, 1, size, 1e9)
	wire := timing.XferTime(size, m.Env.IntraBW)
	want := wire + m.Env.IntraLat
	if done != want {
		t.Fatalf("P2P completion %d, want %d", done, want)
	}
	// Slow stream (one TB): completion extends, wire occupancy doesn't.
	f.Reset()
	slow := f.P2P(0, 0, 1, size, m.Model.ThreadCopyBWPerTB)
	if slow <= done {
		t.Fatalf("slow stream (%d) should finish after fast stream (%d)", slow, done)
	}
	// A second transfer from another source to another target overlaps.
	f.Reset()
	a := f.P2P(0, 0, 1, size, 1e9)
	b := f.P2P(0, 2, 3, size, 1e9)
	if a != b {
		t.Fatalf("disjoint transfers should complete together: %d vs %d", a, b)
	}
	// Same egress port serializes.
	f.Reset()
	a = f.P2P(0, 0, 1, size, 1e9)
	b = f.P2P(0, 0, 2, size, 1e9)
	if b <= a {
		t.Fatalf("shared egress should serialize: first %d, second %d", a, b)
	}
}

func TestFabricP2PCrossNodePanics(t *testing.T) {
	m := New(topology.A100_40G(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Fabric.P2P(0, 0, 8, 1024, 1e9)
}

func TestFabricRDMA(t *testing.T) {
	m := New(topology.H100(2))
	size := int64(1 << 20)
	done := m.Fabric.RDMA(0, 0, 8, size)
	want := timing.XferTime(size, m.Env.IBBW) + m.Env.IBLat
	if done != want {
		t.Fatalf("RDMA completion %d, want %d", done, want)
	}
	// NIC serialization: two sends from the same GPU queue up.
	second := m.Fabric.RDMA(0, 0, 9, size)
	if second <= done {
		t.Fatalf("same nicTx should serialize: %d then %d", done, second)
	}
}

func TestFabricSwitchOps(t *testing.T) {
	m := New(topology.H100(1))
	if !m.Fabric.HasSwitch() {
		t.Fatal("H100 should support switch-mapped I/O")
	}
	size := int64(1 << 20)
	done := m.Fabric.SwitchReduce(0, 0, size, 1e9)
	want := timing.XferTime(size, m.Env.SwitchBW) + m.Env.SwitchLat
	if done != want {
		t.Fatalf("SwitchReduce completion %d, want %d", done, want)
	}
	a100 := New(topology.A100_40G(1))
	if a100.Fabric.HasSwitch() {
		t.Fatal("A100 must not report switch support")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsupported switch op")
		}
	}()
	a100.Fabric.SwitchReduce(0, 0, size, 1e9)
}

func TestFabricMeshPaths(t *testing.T) {
	m := New(topology.MI300x(1))
	size := int64(1 << 20)
	// On a mesh, transfers to different peers use independent links.
	a := m.Fabric.P2P(0, 0, 1, size, 1e9)
	b := m.Fabric.P2P(0, 0, 2, size, 1e9)
	if a != b {
		t.Fatalf("mesh links to different peers should be independent: %d vs %d", a, b)
	}
	// But per-peer bandwidth is the per-link share.
	wire := timing.XferTime(size, m.Env.PeerBW())
	if a != wire+m.Env.IntraLat {
		t.Fatalf("mesh completion %d, want %d", a, wire+m.Env.IntraLat)
	}
	// Same directed pair serializes.
	c := m.Fabric.P2P(0, 0, 1, size, 1e9)
	if c <= a {
		t.Fatal("same mesh link should serialize")
	}
}

func TestSignalLatency(t *testing.T) {
	m := New(topology.H100(2))
	if got := m.Fabric.SignalLatency(0, 1); got != m.Env.IntraLat {
		t.Fatalf("intra signal latency %d, want %d", got, m.Env.IntraLat)
	}
	if got := m.Fabric.SignalLatency(0, 8); got != m.Env.IBLat {
		t.Fatalf("inter signal latency %d, want %d", got, m.Env.IBLat)
	}
}

func TestLocalComputeCosts(t *testing.T) {
	m := New(topology.A100_40G(1))
	var redT, cpT sim.Time
	m.GPUs[0].Kernel("compute", 1, func(k *Kernel) {
		t0 := k.Now()
		k.LocalReduce(1<<20, 4)
		redT = k.Now() - t0
		t1 := k.Now()
		k.LocalCopy(1<<20, 4)
		cpT = k.Now() - t1
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if redT <= 0 || cpT <= 0 {
		t.Fatalf("compute costs must be positive: reduce=%d copy=%d", redT, cpT)
	}
}

func TestShard(t *testing.T) {
	cases := []struct {
		size    int64
		tb, nTB int
		off, n  int64
	}{
		{1024, 0, 1, 0, 1024},
		{1024, 0, 4, 0, 256},
		{1024, 3, 4, 768, 256},
		{1028, 0, 4, 0, 260}, // 257 elements: first gets 65 elems
		{1028, 3, 4, 772, 256},
		{4, 0, 4, 0, 4},
		{4, 1, 4, 4, 0},
		{10, 0, 2, 0, 4}, // 2 elements + 2 tail bytes
		{10, 1, 2, 4, 6}, // last shard absorbs tail
	}
	for _, c := range cases {
		off, n := Shard(c.size, c.tb, c.nTB)
		if off != c.off || n != c.n {
			t.Errorf("Shard(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.size, c.tb, c.nTB, off, n, c.off, c.n)
		}
	}
	// Shards must tile the buffer exactly.
	for _, size := range []int64{0, 4, 100, 1024, 4093} {
		for _, nTB := range []int{1, 2, 3, 7, 16} {
			var total int64
			prevEnd := int64(0)
			for tb := 0; tb < nTB; tb++ {
				off, n := Shard(size, tb, nTB)
				if n > 0 && off != prevEnd {
					t.Fatalf("size %d nTB %d: shard %d starts at %d, want %d", size, nTB, tb, off, prevEnd)
				}
				if n > 0 {
					prevEnd = off + n
				}
				total += n
			}
			if total != size {
				t.Fatalf("size %d nTB %d: shards cover %d bytes", size, nTB, total)
			}
		}
	}
}

// TestCopyReduceShard runs a 3-block kernel whose blocks each take their
// Shard of one copy and one accumulate: together they must touch exactly
// the requested byte range, tail byte included for the copy.
func TestCopyReduceShard(t *testing.T) {
	m := New(topology.H100(1))
	const size, nTB = 4093, 3
	src := m.Alloc(0, "src", size+8)
	dst := m.Alloc(0, "dst", size+16)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(7*i + 1)
	}
	for i := range dst.Bytes() {
		dst.Bytes()[i] = 0xEE
	}
	m.GPUs[0].Kernel("copy", nTB, func(k *Kernel) {
		k.CopyShard(dst, 8, src, 4, size, k.Block, k.NumBlocks)
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range dst.Bytes() {
		want := byte(0xEE)
		if i >= 8 && i < 8+size {
			want = src.Bytes()[i-4]
		}
		if b != want {
			t.Fatalf("copy: dst byte %d = %#x, want %#x", i, b, want)
		}
	}

	// A materialized accumulate needs whole elements: reduce the
	// 4-byte-aligned 4092 bytes (1023 elements, 341 per block).
	const rsize = size &^ 3
	dst.FillPattern(func(i int64) float32 { return float32(i) })
	src.FillPattern(func(i int64) float32 { return 1000 + float32(i) })
	m.GPUs[0].Kernel("reduce", nTB, func(k *Kernel) {
		k.ReduceShard(dst, 8, src, 4, rsize, k.Block, k.NumBlocks)
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < dst.Size()/4; j++ {
		want := float32(j)
		if j >= 2 && j < 2+rsize/4 {
			want += 1000 + float32(j-1)
		}
		if got := dst.Float32(4 * j); got != want {
			t.Fatalf("reduce: dst element %d = %g, want %g", j, got, want)
		}
	}
}
