package core

import (
	"strings"
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func newH100(t *testing.T, nodes int) *machine.Machine {
	t.Helper()
	m := machine.New(topology.H100(nodes))
	m.MaterializeLimit = 1 << 40 // full data verification in tests
	return m
}

// TestMemoryChannelPutSignalWait reproduces paper Figure 3: GPU-0 puts then
// signals; GPU-1 waits and must observe the transferred data.
func TestMemoryChannelPutSignalWait(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 4096
	src := m.Alloc(0, "src0", size)
	dst := m.Alloc(1, "dst1", size)
	src.FillPattern(func(i int64) float32 { return float32(i) + 0.5 })

	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
	var waitDone sim.Time
	m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
		ch0.Put(k, 0, 0, size, 0, 1)
		ch0.Signal(k)
		ch0.Flush(k)
	}).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		ch1.Wait(k)
		waitDone = k.Now()
		// Data must be fully visible now.
		if got := dst.Float32(0); got != 0.5 {
			t.Errorf("dst[0] = %v after wait, want 0.5", got)
		}
		if got := dst.Float32(size - 4); got != float32(size/4-1)+0.5 {
			t.Errorf("dst[last] = %v", got)
		}
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dst.EqualFloat32(func(i int64) float32 { return float32(i) + 0.5 }, 0); err != nil {
		t.Fatal(err)
	}
	if waitDone <= m.Model.KernelLaunch {
		t.Fatalf("wait completed at %d, implausibly early", waitDone)
	}
}

// TestMemoryChannelSignalOrderedAfterPut verifies that a signal never
// arrives before the data of the preceding put is visible, even for large
// transfers.
func TestMemoryChannelSignalOrderedAfterPut(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 1 << 22 // 4 MB: transfer time >> signal latency
	src := m.Alloc(0, "src", size)
	dst := m.Alloc(1, "dst", size)
	src.FillFloat32(3)
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
	m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
		ch0.Put(k, 0, 0, size, 0, 1)
		ch0.Signal(k)
	}).Start()
	ok := true
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		ch1.Wait(k)
		if dst.Float32(size-4) != 3 {
			ok = false
		}
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("signal arrived before put data was visible")
	}
}

func TestMemoryChannelMultiTBPut(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 1 << 16
	const nTB = 8
	src := m.Alloc(0, "src", size)
	dst := m.Alloc(1, "dst", size)
	src.FillPattern(func(i int64) float32 { return float32(i % 97) })
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
	m.GPUs[0].Kernel("send", nTB, func(k *machine.Kernel) {
		ch0.Put(k, 0, 0, size, k.Block, k.NumBlocks)
		k.GridBarrier()
		if k.Block == 0 {
			ch0.Signal(k)
		}
	}).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		ch1.Wait(k)
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dst.EqualFloat32(func(i int64) float32 { return float32(i % 97) }, 0); err != nil {
		t.Fatal(err)
	}
}

// Multi-TB puts must be faster than single-TB for bandwidth-bound sizes.
func TestMemoryChannelMultiTBScaling(t *testing.T) {
	const size = 8 << 20
	elapsed := func(nTB int) sim.Time {
		m := machine.New(topology.H100(1))
		c := NewCommunicator(m)
		src := m.Alloc(0, "src", size)
		dst := m.Alloc(1, "dst", size)
		ch0, _ := c.NewMemoryChannelPair(0, 1, src, dst)
		m.GPUs[0].Kernel("send", nTB, func(k *machine.Kernel) {
			ch0.Put(k, 0, 0, size, k.Block, k.NumBlocks)
		}).Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Now()
	}
	t1, t8 := elapsed(1), elapsed(8)
	if t8 >= t1 {
		t.Fatalf("8-TB put (%d) not faster than 1-TB put (%d)", t8, t1)
	}
	// 8 TBs at 22 GB/s each: ~5.7x speedup expected; allow generous bounds.
	if ratio := float64(t1) / float64(t8); ratio < 3 {
		t.Fatalf("multi-TB scaling ratio %.2f too small", ratio)
	}
}

func TestMemoryChannelLLPackets(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 4096
	src := m.Alloc(0, "src", size)
	scratch := m.Alloc(1, "scratch", size)
	src.FillPattern(func(i int64) float32 { return float32(2 * i) })
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, scratch)
	var recvT, sendIssueT sim.Time
	m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
		ch0.PutPackets(k, 0, 0, size, 0, 1, 7)
		sendIssueT = k.Now()
	}).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		ch1.AwaitPackets(k, 7, size)
		recvT = k.Now()
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := scratch.EqualFloat32(func(i int64) float32 { return float32(2 * i) }, 0); err != nil {
		t.Fatal(err)
	}
	if recvT <= sendIssueT {
		t.Fatalf("receiver finished at %d, sender issued at %d", recvT, sendIssueT)
	}
	if got := ch1.PacketsArrived(7); got != size {
		t.Fatalf("PacketsArrived = %d, want %d", got, size)
	}
}

// Each invocation of an LL algorithm uses a fresh flag. The channel must
// keep only the current run's flags, not one semaphore per invocation.
func TestLLFlagsScopedToRun(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 256
	src := m.Alloc(0, "src", size)
	scratch := m.Alloc(1, "scratch", size)
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, scratch)
	for flag := uint64(1); flag <= 50; flag++ {
		m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
			ch0.PutPackets(k, 0, 0, size, 0, 1, flag)
		}).Start()
		m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
			ch1.AwaitPackets(k, flag, size)
		}).Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := ch1.PacketsArrived(flag); got != size {
			t.Fatalf("invocation %d: PacketsArrived = %d, want %d", flag, got, size)
		}
		if flag > 1 && ch1.PacketsArrived(flag-1) != 0 {
			t.Fatalf("invocation %d: previous run's flag still counted", flag)
		}
		if n := len(ch1.recvLL.flags); ch1.recvLL.sem0 == nil || n != 0 {
			t.Fatalf("invocation %d: channel retains %d extra flags", flag, n)
		}
	}
}

// LL must beat HB on latency for small messages (the protocol's raison
// d'etre): no fence + semaphore round-trip.
func TestLLFasterThanHBSmall(t *testing.T) {
	const size = 1024
	run := func(ll bool) sim.Time {
		m := machine.New(topology.H100(1))
		c := NewCommunicator(m)
		src := m.Alloc(0, "src", size)
		dst := m.Alloc(1, "dst", size)
		ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
		m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
			if ll {
				ch0.PutPackets(k, 0, 0, size, 0, 1, 1)
			} else {
				ch0.Put(k, 0, 0, size, 0, 1)
				ch0.Signal(k)
			}
		}).Start()
		var done sim.Time
		m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
			if ll {
				ch1.AwaitPackets(k, 1, size)
			} else {
				ch1.Wait(k)
			}
			done = k.Now()
		}).Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	llT, hbT := run(true), run(false)
	if llT >= hbT {
		t.Fatalf("LL latency %d >= HB latency %d for 1KB", llT, hbT)
	}
}

// HB must beat LL on bandwidth for large messages (LL doubles traffic).
func TestHBFasterThanLLLarge(t *testing.T) {
	const size = 64 << 20
	run := func(ll bool) sim.Time {
		m := machine.New(topology.H100(1))
		c := NewCommunicator(m)
		src := m.Alloc(0, "src", size)
		dst := m.Alloc(1, "dst", size)
		ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
		const nTB = 24
		m.GPUs[0].Kernel("send", nTB, func(k *machine.Kernel) {
			if ll {
				ch0.PutPackets(k, 0, 0, size, k.Block, k.NumBlocks, 1)
			} else {
				ch0.Put(k, 0, 0, size, k.Block, k.NumBlocks)
				k.GridBarrier()
				if k.Block == 0 {
					ch0.Signal(k)
				}
			}
		}).Start()
		var done sim.Time
		m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
			if ll {
				ch1.AwaitPackets(k, 1, size)
			} else {
				ch1.Wait(k)
			}
			done = k.Now()
		}).Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	llT, hbT := run(true), run(false)
	if hbT >= llT {
		t.Fatalf("HB %d >= LL %d for 64MB", hbT, llT)
	}
}

func TestMemoryChannelReduce(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 8192
	a := m.Alloc(0, "a", size)
	b := m.Alloc(1, "b", size)
	a.FillPattern(func(i int64) float32 { return float32(i) })
	b.FillPattern(func(i int64) float32 { return float32(3 * i) })
	ch0, _ := c.NewMemoryChannelPair(0, 1, a, b)
	m.GPUs[0].Kernel("reduce", 1, func(k *machine.Kernel) {
		// Read peer's data, accumulate into local: a += b.
		ch0.Reduce(k, 0, 0, size, 0, 1)
		// Synchronous: values available immediately.
		if got := a.Float32(4); got != 4 {
			t.Errorf("a[1] = %v mid-kernel, want 4", got)
		}
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := a.EqualFloat32(func(i int64) float32 { return float32(4 * i) }, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryChannelReducePutFused(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	const size = 4096
	src := m.Alloc(0, "src", size)
	data := m.Alloc(0, "data", size)
	dst := m.Alloc(1, "dst", size)
	src.FillPattern(func(i int64) float32 { return float32(i) })
	data.FillPattern(func(i int64) float32 { return float32(10 * i) })
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
	m.GPUs[0].Kernel("rp", 1, func(k *machine.Kernel) {
		ch0.ReducePut(k, dst, 0, src, 0, data, 0, size, 0, 1)
		ch0.Signal(k)
	}).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
		ch1.Wait(k)
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dst.EqualFloat32(func(i int64) float32 { return float32(11 * i) }, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestPutWithSignalFusionCheaper(t *testing.T) {
	const size = 1024
	run := func(fused bool) sim.Time {
		m := machine.New(topology.H100(1))
		c := NewCommunicator(m)
		src := m.Alloc(0, "src", size)
		dst := m.Alloc(1, "dst", size)
		ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, dst)
		m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) {
			if fused {
				ch0.PutWithSignal(k, 0, 0, size, 0, 1)
			} else {
				ch0.Put(k, 0, 0, size, 0, 1)
				ch0.Signal(k)
			}
		}).Start()
		var done sim.Time
		m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) {
			ch1.Wait(k)
			done = k.Now()
		}).Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	if f, u := run(true), run(false); f > u {
		t.Fatalf("fused put_with_signal (%d) slower than unfused (%d)", f, u)
	}
}

func TestMemoryChannelWrongRankPanics(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	src := m.Alloc(0, "src", 64)
	dst := m.Alloc(1, "dst", 64)
	ch0, _ := c.NewMemoryChannelPair(0, 1, src, dst)
	panicked := false
	m.GPUs[2].Kernel("bad", 1, func(k *machine.Kernel) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch0.Put(k, 0, 0, 64, 0, 1)
	}).Start()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("expected panic using channel from wrong rank")
	}
}

func TestChannelPairValidation(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	good0 := m.Alloc(0, "g0", 64)
	good1 := m.Alloc(1, "g1", 64)
	cases := []func(){
		func() { c.NewMemoryChannelPair(0, 0, good0, good0) },
		func() { c.NewMemoryChannelPair(0, 9, good0, good1) },
		func() { c.NewMemoryChannelPair(0, 1, good1, good0) }, // swapped ranks
		func() { c.NewMemoryChannelPair(0, 1, nil, good1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected construction panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestLLRelaunchAllocFree: an LL channel's flag semaphores are recycled
// for the next run's flags, renumbered and with their waiter capacity, so a
// prepared packet put and await relaunched with a fresh flag per run
// allocates nothing, and each run counts only its own flag's bytes.
func TestLLRelaunchAllocFree(t *testing.T) {
	m := newH100(t, 1)
	m.MaterializeLimit = 0
	c := NewCommunicator(m)
	const size = 4096
	src := m.Alloc(0, "src", size)
	scr := m.Alloc(1, "scr", size)
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, scr)
	var flag uint64
	l := m.Kernel("ll", 2, func(k *machine.Kernel, r int) {
		switch r {
		case 0:
			ch0.PutPackets(k, 0, 0, size, k.Block, k.NumBlocks, flag)
		case 1:
			ch1.AwaitPackets(k, flag, size)
		}
	})
	allocs := testing.AllocsPerRun(20, func() {
		flag++
		l.Start()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an LL relaunch allocates %v objects, want 0", allocs)
	}
	if got := ch1.PacketsArrived(flag); got != size {
		t.Fatalf("flag %d counted %d bytes, want %d", flag, got, size)
	}
	if got := ch1.PacketsArrived(flag - 1); got != 0 {
		t.Fatalf("the previous run's flag %d still counts %d bytes", flag-1, got)
	}
}

// TestLLDeadlockedFlagNotRecycled: a flag semaphore that a deadlocked run
// left with a waiter stays with that waiter; the next run's flags get
// semaphores of their own and still complete.
func TestLLDeadlockedFlagNotRecycled(t *testing.T) {
	m := newH100(t, 1)
	c := NewCommunicator(m)
	src := m.Alloc(0, "src", 64)
	scr := m.Alloc(1, "scr", 64)
	ch0, ch1 := c.NewMemoryChannelPair(0, 1, src, scr)
	m.GPUs[1].Kernel("orphan", 1, func(k *machine.Kernel) { ch1.AwaitPackets(k, 1, 64) }).Start()
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "orphan/gpu1/tb0 (semaphore mc1/ll/0->1/flag1)") {
		t.Fatalf("first run: %v, want orphan blocked on flag 1", err)
	}
	m.GPUs[0].Kernel("send", 1, func(k *machine.Kernel) { ch0.PutPackets(k, 0, 0, 64, 0, 1, 2) }).Start()
	m.GPUs[1].Kernel("recv", 1, func(k *machine.Kernel) { ch1.AwaitPackets(k, 2, 64) }).Start()
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "1 process(es) blocked: orphan/gpu1/tb0 (semaphore mc1/ll/0->1/flag1)") {
		t.Fatalf("second run: %v, want only orphan still blocked on flag 1", err)
	}
}
