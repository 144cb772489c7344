package core

import (
	"fmt"
	"strings"
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// TestPrimitivesSameInstant pins what every Primitive API call that books
// in a step of the block's Kernel does to virtual time and to the event
// order. In each case two blocks of one rank issue the same
// primitive towards the same peer at the same nanosecond, contending for
// the same link, switch or proxy queue. The trace records, for every block
// that returns from a call, its rank, block, virtual time and the engine
// events run so far, and then the destination words that show which
// landing fired last where both blocks write one range. The values were
// recorded with blocks that slept once to pay the call overhead and once
// more to issue the transfer; a step that runs at a different point of the
// event order moves a time, an event count or a landed word.
func TestPrimitivesSameInstant(t *testing.T) {
	const S = 16 << 10 // bytes each block moves
	type rig struct {
		m             *machine.Machine
		c             *Communicator
		src0, dst0    *mem.Buffer // rank 0: 2*S of pattern, S of zeros
		src1, dst1    *mem.Buffer // rank 1: likewise
		trace         []string
		send, peer    func(k *machine.Kernel)
		runs          int
		probeBuf      *mem.Buffer
		probeOffs     []int64
		before, after func(run int)
	}
	rec := func(r *rig, k *machine.Kernel) {
		r.trace = append(r.trace, fmt.Sprintf("r%d.tb%d@%d#%d", k.GPU.Rank, k.Block, k.Now(), r.m.Engine.EventsRun()))
	}
	for _, tc := range []struct {
		name  string
		setup func(r *rig)
		want  string
	}{
		{"put", func(r *rig) {
			ch0, _ := r.c.NewMemoryChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) { ch0.Put(k, 0, int64(k.Block)*S, S, 0, 1); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst1, []int64{0, S - 4}
		}, "r0.tb0@1870#6 r0.tb1@1911#7 [0]=4096 [16380]=8191"},
		{"put-zero-shard", func(r *rig) {
			ch0, _ := r.c.NewMemoryChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) { ch0.Put(k, 0, 0, 4, k.Block, 2); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r0.tb1@1125#5 r0.tb0@1126#6 [0]=0"},
		{"put-packets-recycled-flag", func(r *rig) {
			scr := r.m.Alloc(1, "scr", 2*S)
			ch0, ch1 := r.c.NewMemoryChannelPairEx(0, 1, r.src0, scr, r.src1, r.dst0)
			flag := uint64(0)
			r.runs = 2
			r.before = func(int) { flag++ }
			r.send = func(k *machine.Kernel) {
				ch0.PutPackets(k, int64(k.Block)*S, int64(k.Block)*S, S, 0, 1, flag)
				rec(r, k)
			}
			r.peer = func(k *machine.Kernel) { ch1.AwaitPackets(k, flag, 2*S); rec(r, k) }
			r.after = func(int) {
				r.trace = append(r.trace, fmt.Sprintf("flag%d=%d", flag, ch1.PacketsArrived(flag)))
			}
			r.probeBuf, r.probeOffs = scr, []int64{0, 2*S - 4}
		}, "r0.tb0@2615#8 r0.tb1@2697#9 r1.tb0@3579#14 flag1=32768 r0.tb0@6194#22 r0.tb1@6276#23 r1.tb0@7158#28 flag2=32768 [0]=0 [32764]=8191"},
		{"put-with-signal", func(r *rig) {
			ch0, ch1 := r.c.NewMemoryChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) { ch0.PutWithSignal(k, 0, int64(k.Block)*S, S, 0, 1); rec(r, k) }
			r.peer = func(k *machine.Kernel) { ch1.Wait(k); rec(r, k); ch1.Wait(k); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r0.tb0@2085#8 r0.tb1@2126#9 r1.tb0@3027#15 r1.tb0@3147#16 [0]=4096"},
		{"reduce", func(r *rig) {
			// Rank 0 accumulates rank 1's pattern into its own dst.
			ch0, _ := r.c.NewMemoryChannelPairEx(0, 1, r.dst0, r.src1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) { ch0.Reduce(k, 0, int64(k.Block)*S, S, 0, 1); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst0, []int64{0, S - 4}
		}, "r0.tb0@2971#7 r0.tb1@3012#9 [0]=204096 [16380]=212286"},
		{"reduce-put", func(r *rig) {
			ch0, _ := r.c.NewMemoryChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) {
				ch0.ReducePut(k, r.dst1, 0, r.src0, int64(k.Block)*S, r.src0, S-int64(k.Block)*S/2, S, 0, 1)
				rec(r, k)
			}
			r.probeBuf, r.probeOffs = r.dst1, []int64{0, S - 4}
		}, "r0.tb0@2149#6 r0.tb1@2190#7 [0]=6144 [16380]=14334"},
		{"switch-reduce", func(r *rig) {
			sc := r.c.NewSwitchChannels([]int{0, 1}, []*mem.Buffer{r.src0, r.src1})
			r.send = func(k *machine.Kernel) { sc[0].ReduceInto(k, r.dst0, 0, int64(k.Block)*S, S, 0, 1); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst0, []int64{0}
		}, "r0.tb0@2220#7 r0.tb1@2273#9 [0]=108192"},
		{"switch-broadcast", func(r *rig) {
			sc := r.c.NewSwitchChannels([]int{0, 1}, []*mem.Buffer{r.dst0, r.dst1})
			r.send = func(k *machine.Kernel) { sc[0].BroadcastFrom(k, r.src0, int64(k.Block)*S, 0, S, 0, 1); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r0.tb0@1870#6 r0.tb1@1923#7 [0]=4096"},
		{"switch-fused-reduce-broadcast", func(r *rig) {
			in := r.c.NewSwitchChannels([]int{0, 1}, []*mem.Buffer{r.src0, r.src1})
			out := r.c.NewSwitchChannels([]int{0, 1}, []*mem.Buffer{r.dst0, r.dst1})
			r.send = func(k *machine.Kernel) {
				FusedReduceBroadcast(k, in[0], out[0], 0, int64(k.Block)*S, S, 0, 1)
				rec(r, k)
			}
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r0.tb0@2220#7 r0.tb1@2273#9 [0]=108192"},
		{"wait", func(r *rig) {
			ch0, ch1 := r.c.NewMemoryChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) { ch0.Wait(k); rec(r, k) }
			r.peer = func(k *machine.Kernel) { ch1.Signal(k); ch1.Signal(k); rec(r, k) }
		}, "r1.tb0@1580#7 r0.tb0@2282#10 r0.tb1@2522#13"},
		{"await-packets", func(r *rig) {
			scr := r.m.Alloc(0, "scr", 2*S)
			ch0, ch1 := r.c.NewMemoryChannelPairEx(0, 1, r.src0, r.dst1, r.src1, scr)
			r.send = func(k *machine.Kernel) { ch0.AwaitPackets(k, 3, uint64(k.Block+1)*S); rec(r, k) }
			r.peer = func(k *machine.Kernel) { ch1.PutPackets(k, 0, 0, 2*S, 0, 1, 3); rec(r, k) }
		}, "r1.tb0@4104#7 r0.tb0@4986#10 r0.tb1@4986#11"},
		{"port-put-signal-flush", func(r *rig) {
			ch0, ch1 := r.c.NewPortChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) {
				ch0.Put(k, 0, int64(k.Block)*S, S, 0, 1)
				ch0.Signal(k)
				ch0.Flush(k)
				rec(r, k)
			}
			r.peer = func(k *machine.Kernel) { ch1.Wait(k); rec(r, k); ch1.Wait(k); rec(r, k) }
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r1.tb0@4604#32 r1.tb0@4724#33 r0.tb0@5264#38 r0.tb1@5264#39 [0]=4096"},
		{"port-put-signal-and-flush", func(r *rig) {
			ch0, _ := r.c.NewPortChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) {
				ch0.PutWithSignalAndFlush(k, 0, int64(k.Block)*S, S, 0, 1)
				ch0.WaitFlush(k)
				rec(r, k)
			}
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r0.tb0@7078#21 r0.tb1@7078#22 [0]=4096"},
		{"port-full-queue", func(r *rig) {
			// 2 x 80 requests overrun the 128-slot FIFO.
			ch0, ch1 := r.c.NewPortChannelPairEx(0, 1, r.src0, r.dst1, r.src1, r.dst0)
			r.send = func(k *machine.Kernel) {
				for i := 0; i < 80; i++ {
					ch0.PutWithSignal(k, 0, int64(k.Block)*S, 64, 0, 1)
				}
				rec(r, k)
			}
			r.peer = func(k *machine.Kernel) {
				for i := 0; i < 160; i++ {
					ch1.Wait(k)
				}
				rec(r, k)
			}
			r.probeBuf, r.probeOffs = r.dst1, []int64{0}
		}, "r0.tb0@17500#525 r0.tb1@17500#526 r1.tb0@59863#1126 [0]=4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newH100(t, 1)
			r := &rig{m: m, c: NewCommunicator(m), runs: 1}
			for rank, b := range []**mem.Buffer{&r.src0, &r.src1} {
				*b = m.Alloc(rank, "src", 2*S)
				base := float32(rank * 100000)
				(*b).FillPattern(func(i int64) float32 { return base + float32(i) })
			}
			r.dst0, r.dst1 = m.Alloc(0, "dst", S), m.Alloc(1, "dst", S)
			tc.setup(r)
			send := m.GPUs[0].Kernel("send", 2, r.send)
			var peer *machine.Launch
			if r.peer != nil {
				peer = m.GPUs[1].Kernel("peer", 1, r.peer)
			}
			for run := 0; run < r.runs; run++ {
				if r.before != nil {
					r.before(run)
				}
				send.Start()
				if peer != nil {
					peer.Start()
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if r.after != nil {
					r.after(run)
				}
			}
			for _, off := range r.probeOffs {
				r.trace = append(r.trace, fmt.Sprintf("[%d]=%g", off, r.probeBuf.Float32(off)))
			}
			if got := strings.Join(r.trace, " "); got != tc.want {
				t.Errorf("trace\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestBlockedPrimitiveNamesSemaphore: a block that a deadlocked run leaves
// in Wait, AwaitPackets or WaitFlush waits in its Kernel's queue, not in
// the block, and is still reported blocked on the semaphore it
// waits for. (A block left waiting for a free proxy FIFO slot is
// proxy.TestFullQueueDeadlockNamesFIFO.)
func TestBlockedPrimitiveNamesSemaphore(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(mc *MemoryChannel, pc *PortChannel) func(k *machine.Kernel)
		want string
	}{
		{"wait", func(mc *MemoryChannel, _ *PortChannel) func(k *machine.Kernel) {
			return func(k *machine.Kernel) { mc.Wait(k) }
		}, "blk/gpu1/tb0 (semaphore mc1/0->1)"},
		{"await-packets", func(mc *MemoryChannel, _ *PortChannel) func(k *machine.Kernel) {
			return func(k *machine.Kernel) { mc.AwaitPackets(k, 5, 64) }
		}, "blk/gpu1/tb0 (semaphore mc1/ll/0->1/flag5)"},
		{"wait-flush", func(_ *MemoryChannel, pc *PortChannel) func(k *machine.Kernel) {
			// A flush the proxy was never asked for: nothing completes it.
			return func(k *machine.Kernel) { pc.flushCount++; pc.WaitFlush(k) }
		}, "blk/gpu1/tb0 (semaphore pc2/flush@1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newH100(t, 1)
			c := NewCommunicator(m)
			a, b := m.Alloc(0, "a", 64), m.Alloc(1, "b", 64)
			_, mc := c.NewMemoryChannelPair(0, 1, a, b)
			_, pc := c.NewPortChannelPair(0, 1, a, b)
			m.GPUs[1].Kernel("blk", 1, tc.body(mc, pc)).Start()
			err := m.Run()
			if err == nil || !strings.Contains(err.Error(), "1 process(es) blocked: "+tc.want) {
				t.Fatalf("Run = %v, want %s", err, tc.want)
			}
		})
	}
}

// TestPrimitiveCallsAllocFree relaunches a kernel that makes every call
// that books in a step: a call keeps its state in a Call record from the
// process-wide free list and lands from the machine's pool, so once warm
// it allocates nothing (a closure, a boxed value, a record or a landing
// per call would show).
func TestPrimitiveCallsAllocFree(t *testing.T) {
	m := newH100(t, 1)
	m.MaterializeLimit = 0
	c := NewCommunicator(m)
	const size = 4096
	a, b := m.Alloc(0, "a", size), m.Alloc(1, "b", size)
	mc0, mc1 := c.NewMemoryChannelPair(0, 1, a, b)
	pc0, pc1 := c.NewPortChannelPair(0, 1, a, b)
	sw := c.NewSwitchChannels([]int{0, 1}, []*mem.Buffer{a, b})
	var flag uint64
	l := m.Kernel("all", 1, func(k *machine.Kernel, r int) {
		switch r {
		case 0:
			mc0.Put(k, 0, 0, size, 0, 1)
			mc0.PutWithSignal(k, 0, 0, size, 0, 1)
			mc0.PutPackets(k, 0, 0, size, 0, 1, flag)
			mc0.Reduce(k, 0, 0, size, 0, 1)
			mc0.ReducePut(k, b, 0, a, 0, a, 0, size, 0, 1)
			sw[0].Reduce(k, 0, 0, size, 0, 1)
			sw[0].Broadcast(k, 0, 0, size, 0, 1)
			FusedReduceBroadcast(k, sw[0], sw[0], 0, 0, size, 0, 1)
			pc0.Put(k, 0, 0, size, 0, 1)
			pc0.Signal(k)
			pc0.Flush(k)
		case 1:
			mc1.Wait(k)
			mc1.AwaitPackets(k, flag, size)
			pc1.Wait(k)
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
		t.Fatalf("a relaunch of every booking primitive allocates %v objects, want 0", allocs)
	}
}
