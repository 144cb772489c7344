package core

import (
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// Protocol selects the MemoryChannel data-transfer protocol (paper §4.2).
type Protocol int

const (
	// ProtoHB is the high-bandwidth protocol: bulk 16-byte vectorized copies
	// synchronized once per chunk with signal/wait semaphores.
	ProtoHB Protocol = iota
	// ProtoLL is the low-latency protocol: data interleaved with flag words
	// so the receiver can consume it without a semaphore round-trip, at the
	// cost of doubled wire traffic.
	ProtoLL
)

// String names the protocol: "LL" or "HB".
func (p Protocol) String() string {
	if p == ProtoLL {
		return "LL"
	}
	return "HB"
}

// llState tracks LL-protocol packet arrival for one channel direction:
// cumulative bytes whose flags have become visible, per flag value. Most
// algorithm steps use a single live flag, so the first flag is cached
// inline; the rare additional flags live in a small linear-scanned slice
// (flag populations are tiny — one per algorithm step).
//
// Flags are scoped to one engine run: every invocation of an LL algorithm
// uses a fresh flag, so the first lookup in a new run drops the previous
// run's flags. Their semaphores go to a free list and come back renumbered
// for the new run's flags, so a relaunch allocates none; one that a
// deadlocked run left with waiters is dropped instead.
type llState struct {
	e     *sim.Engine
	name  string // flag semaphores are named name followed by the flag
	run   uint64 // e.Runs() when the flags below were created
	flag0 uint64
	sem0  *sim.Semaphore
	flags []uint64
	sems  []*sim.Semaphore
	free  []*sim.Semaphore
}

// lookup returns flag's semaphore, or nil if flag has not been used. It is
// a pure read: it neither creates nor drops flags.
func (s *llState) lookup(flag uint64) *sim.Semaphore {
	if s.sem0 != nil && s.flag0 == flag {
		return s.sem0
	}
	for i, f := range s.flags {
		if f == flag {
			return s.sems[i]
		}
	}
	return nil
}

// sem returns flag's semaphore in the current run, creating it on first use.
func (s *llState) sem(flag uint64) *sim.Semaphore {
	if run := s.e.Runs(); run != s.run {
		s.run = run
		s.recycle(s.sem0)
		s.sem0 = nil
		for _, sem := range s.sems {
			s.recycle(sem)
		}
		clear(s.sems)
		s.flags, s.sems = s.flags[:0], s.sems[:0]
	}
	if sem := s.lookup(flag); sem != nil {
		return sem
	}
	var sem *sim.Semaphore
	if n := len(s.free); n > 0 {
		sem = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		sem.Reset(flag)
	} else {
		sem = sim.NewNumberedSemaphore(s.e, s.name, flag)
	}
	if s.sem0 == nil {
		s.flag0, s.sem0 = flag, sem
	} else {
		s.flags = append(s.flags, flag)
		s.sems = append(s.sems, sem)
	}
	return sem
}

// recycle puts a finished run's flag semaphore, if any, on the free list,
// unless a process still waits on it.
func (s *llState) recycle(sem *sim.Semaphore) {
	if sem != nil && sem.Waiting() == 0 {
		s.free = append(s.free, sem)
	}
}

// MemoryChannel is one endpoint of a memory-mapped I/O channel: the local
// GPU's threads directly store into (and load from) the peer GPU's memory.
type MemoryChannel struct {
	endpoint

	sendLL *llState // put_packets progress we produce
	recvLL *llState // put_packets progress we consume

	lastVisible sim.Time // completion time of our latest outbound HB store
}

// NewMemoryChannelPair connects ranks a and b with memory-mapped channels,
// registering abuf/bbuf as the respective local buffers. Puts from a land in
// bbuf; puts from b land in abuf.
func (c *Communicator) NewMemoryChannelPair(a, b int, abuf, bbuf *mem.Buffer) (*MemoryChannel, *MemoryChannel) {
	return c.NewMemoryChannelPairEx(a, b, abuf, bbuf, bbuf, abuf)
}

// NewMemoryChannelPairEx connects ranks a and b with independent per-
// direction buffer bindings: a's puts stream aSrc (on a) into aDst (on b),
// b's puts stream bSrc (on b) into bDst (on a). This matches MSCCL++'s
// registration model, where each channel handle binds a local source and a
// remote destination (e.g. the peer's packet scratch buffer).
func (c *Communicator) NewMemoryChannelPairEx(a, b int, aSrc, aDst, bSrc, bDst *mem.Buffer) (*MemoryChannel, *MemoryChannel) {
	ea, eb, tag := c.newEndpoints("MemoryChannel", "mc", a, b, aSrc, aDst, bSrc, bDst)
	e := c.M.Engine
	llAB := &llState{e: e, name: tag + "/ll/" + ea.dir() + "/flag"}
	llBA := &llState{e: e, name: tag + "/ll/" + eb.dir() + "/flag"}
	return &MemoryChannel{endpoint: ea, sendLL: llAB, recvLL: llBA},
		&MemoryChannel{endpoint: eb, sendLL: llBA, recvLL: llAB}
}

// put streams this block's shard of size bytes from src[srcOff] into
// dst[dstOff] on the peer using the block's threads. An LL put doubles the
// wire traffic and counts its bytes on flag's semaphore when they land; an
// HB put advances lastVisible instead, which orders the next Signal. The
// booking step books the stores after the call overhead, and the call ends
// once the block's threads have issued them, IntraLat before the data is
// visible; then the data's landing is scheduled.
func (ch *MemoryChannel) put(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff int64, size int64, tb, nTB int, proto Protocol, flag uint64) {
	ch.checkKernel(k)
	model := k.Model()
	off, n := machine.Shard(size, tb, nTB)
	if n == 0 {
		k.Elapse(model.InstrOverhead)
		return
	}
	c := k.Call()
	c.Obj, c.Dst, c.DstOff, c.Src, c.SrcOff, c.N = ch, dst, dstOff+off, src, srcOff+off, n
	if proto == ProtoLL {
		c.Arg = flag
		k.Issue(c, putLLStep, landLLPut)
	} else {
		k.Issue(c, putHBStep, landHBPut)
	}
}

// putLLStep books an LL put's wire bytes, N data bytes inflated by the
// flag words, and ends the call when the block's threads have issued the
// stores.
func putLLStep(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	complete := k.Fabric().P2P(k.P.Now(), ch.local, ch.remote, int64(float64(c.N)*k.Model().LLTrafficFactor), k.Model().ThreadCopyBWPerTB)
	k.WakeAt(complete - ch.m.Env.IntraLat)
}

// putHBStep books an HB put's N bytes, orders the channel's next Signal
// after the stores and ends the call when the block's threads have issued
// them.
func putHBStep(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	complete := k.Fabric().P2P(k.P.Now(), ch.local, ch.remote, c.N, k.Model().ThreadCopyBWPerTB)
	ch.lastVisible = max(ch.lastVisible, complete)
	k.WakeAt(complete - ch.m.Env.IntraLat)
}

// landHBPut is an HB put's after-wake part: it schedules the data's
// landing where the stores complete, IntraLat after the call ended.
func landHBPut(k *machine.Kernel, c *machine.Call) {
	k.Machine().Land(k.P.Now()+k.Machine().Env.IntraLat, machine.Landing{Op: machine.LandCopy,
		Dst: c.Dst, DstOff: c.DstOff, Src: c.Src, SrcOff: c.SrcOff, N: c.N})
}

// landLLPut is landHBPut for an LL put, whose landing also counts its
// bytes on the flag's semaphore.
func landLLPut(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	k.Machine().Land(k.P.Now()+ch.m.Env.IntraLat, machine.Landing{Op: machine.LandCopy,
		Dst: c.Dst, DstOff: c.DstOff, Src: c.Src, SrcOff: c.SrcOff, N: c.N,
		Sem: ch.sendLL.sem(c.Arg), SemAdd: uint64(c.N)})
}

// Put implements the HB-protocol one-sided write into the peer's bound
// buffer (paper Figure 2). Thread block tb of nTB moves its shard.
func (ch *MemoryChannel) Put(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.put(k, ch.remoteBuf, dstOff, ch.localBuf, srcOff, size, tb, nTB, ProtoHB, 0)
}

// PutBuf is Put with explicit buffers (used by the DSL executor, which
// registers multiple buffers per rank).
func (ch *MemoryChannel) PutBuf(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	checkBufs("PutBuf", dst, ch.remote, src, ch.local)
	ch.put(k, dst, dstOff, src, srcOff, size, tb, nTB, ProtoHB, 0)
}

// PutPackets implements the LL-protocol write: every data word travels with
// a flag word (doubling traffic), letting the receiver consume data at
// packet granularity without semaphores. flag must be distinct per
// algorithm step (paper §4.2). A flag's arrival count lives for one engine
// run: the first LL operation in the next Run starts every flag at zero.
func (ch *MemoryChannel) PutPackets(k *machine.Kernel, dstOff, srcOff, size int64,
	tb, nTB int, flag uint64) {
	ch.PutPacketsBuf(k, ch.remoteBuf, dstOff, ch.localBuf, srcOff, size, tb, nTB, flag)
}

// PutPacketsBuf is PutPackets with explicit buffers.
func (ch *MemoryChannel) PutPacketsBuf(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff, size int64, tb, nTB int, flag uint64) {
	checkBufs("PutPacketsBuf", dst, ch.remote, src, ch.local)
	ch.put(k, dst, dstOff, src, srcOff, size, tb, nTB, ProtoLL, flag)
}

// AwaitPackets blocks until at least target cumulative bytes tagged with
// flag have arrived on this channel direction in the current engine run
// (the receiver-side flag poll of the LL protocol).
func (ch *MemoryChannel) AwaitPackets(k *machine.Kernel, flag uint64, target uint64) {
	ch.checkKernel(k)
	k.Await(ch.recvLL.sem(flag), target, k.Model().LLCheckCost)
}

// PacketsArrived returns the cumulative LL bytes received for flag
// (non-blocking check, used by polling loops). It counts the latest run
// that used this channel's LL flags, so it can still be read after Run
// returns; it is 0 for a flag that run did not use.
func (ch *MemoryChannel) PacketsArrived(flag uint64) uint64 {
	if sem := ch.recvLL.lookup(flag); sem != nil {
		return sem.Value()
	}
	return 0
}

// Signal asynchronously increments the peer's semaphore, ordered after all
// previous puts on this channel (a __threadfence_system precedes the store):
// the call sleeps for the fence and the store, then signal sends it.
func (ch *MemoryChannel) Signal(k *machine.Kernel) {
	ch.checkKernel(k)
	model := k.Model()
	c := k.Call()
	c.Obj, c.D = ch, model.MemFenceCost+model.SemSignalCost
	k.Submit(c, machine.Sleep, signal)
}

// signal is the after-wake part of a MemoryChannel signal.
func signal(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	ch.signal(k.P.Now(), ch.lastVisible)
}

// Flush is a no-op for MemoryChannel: once Put returns, the source buffer
// may be reused even though the write may still be in flight (paper §4.2).
func (ch *MemoryChannel) Flush(k *machine.Kernel) {
	ch.checkKernel(k)
	k.Elapse(k.Model().InstrOverhead)
}

// PutWithSignal fuses Put and Signal, paying the call overhead once: the
// call books its shard at once, and the step that runs once the block's
// threads have issued the stores starts the signal's fence.
func (ch *MemoryChannel) PutWithSignal(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	off, n := machine.Shard(size, tb, nTB)
	if n == 0 {
		ch.Signal(k)
		return
	}
	model := k.Model()
	c := k.Call()
	c.Obj, c.D = ch, model.MemFenceCost+model.SemSignalCost
	c.Dst, c.DstOff, c.Src, c.SrcOff, c.N = ch.remoteBuf, dstOff+off, ch.localBuf, srcOff+off, n
	k.Submit(c, putWithSignal, signal)
}

// putWithSignal is PutWithSignal's call-time part: it books and lands the
// stores, then pays the fence and the semaphore store (D) once they are
// issued.
func putWithSignal(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	complete := k.Fabric().P2P(k.P.Now(), ch.local, ch.remote, c.N, k.Model().ThreadCopyBWPerTB)
	ch.lastVisible = max(ch.lastVisible, complete)
	k.Machine().Land(complete, machine.Landing{Op: machine.LandCopy,
		Dst: c.Dst, DstOff: c.DstOff, Src: c.Src, SrcOff: c.SrcOff, N: c.N})
	k.Then(complete-ch.m.Env.IntraLat, machine.Sleep)
}

// Reduce reads size bytes of the peer's bound buffer at srcOff and
// accumulates them element-wise into the local bound buffer at dstOff
// (remote load + add + local store, one streaming pass). Synchronous: the
// block's next read of the buffer, which waits for its queued calls, sees
// the reduced values.
func (ch *MemoryChannel) Reduce(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.ReduceBuf(k, ch.localBuf, dstOff, ch.remoteBuf, srcOff, size, tb, nTB)
}

// ReduceBuf is Reduce with explicit buffers: it reads size bytes of src (on
// the peer) at srcOff and accumulates them into dst (local) at dstOff.
func (ch *MemoryChannel) ReduceBuf(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	checkBufs("ReduceBuf", dst, ch.local, src, ch.remote)
	ch.checkKernel(k)
	off, n := machine.Shard(size, tb, nTB)
	if c := issueCall(k, ch, n); c != nil {
		c.Dst, c.DstOff, c.Src, c.SrcOff = dst, dstOff+off, src, srcOff+off
		k.Issue(c, reduceStep, nil)
	}
}

// reduceStep books a reduce's N bytes, which flow peer -> local over the
// link at the reduce streaming rate, and lands them as the call ends.
func reduceStep(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	complete := k.Fabric().P2P(k.P.Now(), ch.remote, ch.local, c.N, k.Model().ReduceBWPerTB)
	k.Machine().Land(complete, machine.Landing{Op: machine.LandAccumulate,
		Dst: c.Dst, DstOff: c.DstOff, Src: c.Src, SrcOff: c.SrcOff, N: c.N})
	k.WakeAt(complete)
}

// ReducePut is the fused reduce_put primitive produced by DSL operation
// fusion (paper §5.3): it adds size bytes of src at srcOff and data at
// dataOff (both local) and puts the sums into dst (on the peer) at dstOff,
// keeping the intermediate in registers (single streaming pass, no memory
// round-trip).
func (ch *MemoryChannel) ReducePut(k *machine.Kernel, dst *mem.Buffer, dstOff int64,
	src *mem.Buffer, srcOff int64, data *mem.Buffer, dataOff, size int64, tb, nTB int) {
	checkBufs("ReducePut", dst, ch.remote, src, ch.local)
	checkBufs("ReducePut", dst, ch.remote, data, ch.local)
	ch.checkKernel(k)
	off, n := machine.Shard(size, tb, nTB)
	if c := issueCall(k, ch, n); c != nil {
		k.Stage(c, machine.Landing{Op: machine.LandCopyAccumulate, Dst: dst, DstOff: dstOff + off,
			Src: src, SrcOff: srcOff + off, Data: data, DataOff: dataOff + off, N: n})
		k.Issue(c, reducePutStep, nil)
	}
}

// reducePutStep books a reduce-put's N bytes, lands the sums and ends the
// call when the block's threads have issued the stores.
func reducePutStep(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*MemoryChannel)
	model := k.Model()
	complete := k.Fabric().P2P(k.P.Now(), ch.local, ch.remote, c.N, min(model.ReduceBWPerTB, model.ThreadCopyBWPerTB))
	ch.lastVisible = max(ch.lastVisible, complete)
	k.LandStaged(c, complete)
	k.WakeAt(complete - ch.m.Env.IntraLat)
}

var _ Channel = (*MemoryChannel)(nil)
