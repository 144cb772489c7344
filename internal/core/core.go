// Package core implements the MSCCL++ Primitive API (paper Section 4): the
// minimal, performance-preserving hardware abstractions for GPU
// communication.
//
// The package provides the three channel types of the paper —
//
//   - PortChannel for port-mapped I/O (DMA engines / RDMA NICs driven by a
//     CPU proxy thread through a FIFO request queue),
//   - MemoryChannel for memory-mapped I/O (peer-to-peer thread copy, with LL
//     and HB protocols),
//   - SwitchChannel for switch-mapped I/O (in-network reduction and
//     multicast over multimem addresses),
//
// plus the bootstrap-side Communicator used to establish channels. All data
// transfer primitives are zero-copy (no staging buffers), one-sided
// (initiated by one peer) and asynchronous (explicit signal/wait/flush
// synchronization).
//
// MemoryChannel and PortChannel share one point-to-point endpoint, which
// holds the rank pair, the bound buffers, Wait and the signal-ordering
// rule. A primitive on a channel's bound buffers calls its explicit-buffer
// form, which holds the only body: MemoryChannel.Put and PutBuf share one
// put with PutPackets/PutPacketsBuf, Reduce calls ReduceBuf (MemoryChannel)
// or ReduceInto (SwitchChannel), and Broadcast calls BroadcastFrom.
//
// A primitive call costs its thread block no process wake: the block
// queues it on its machine.Kernel and goes on with its body, and the
// Kernel runs the call's steps as engine Actions where a block that slept
// through the call would have woken (see machine.Kernel). A call that
// would sleep for its issue overhead and then again while its threads
// issue the transfer (put, ReduceBuf, ReducePut, the switch operations, a
// PortChannel push) is a machine.Kernel.Issue call: its booking step, a
// top-level function, books the fabric (or takes the proxy FIFO ticket)
// at the instant of the first wake and ends the call where the second
// sleep would have ended. A wait (Wait, AwaitPackets, WaitFlush) ends the
// call with machine.Kernel.WakeAfter: the semaphore fires the Kernel where
// it would have resumed the block, and the Kernel pays the wake-up cost.
// Virtual time, the event order and the event count are those of a block
// that slept through every call, and so is what the body sees: its own
// reads of buffer data and of the clock wait for its queued calls
// (machine.Machine.SyncData, machine.Kernel.Now). An HB or LL put lands its data in its
// after-wake part; a reduce or a switch operation lands it from its
// booking step. A call's operands live in its pooled machine.Call record,
// so no call allocates. An empty shard pays the call overhead only.
package core

import (
	"fmt"
	"strconv"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// Communicator is the host-side bootstrap object: it owns channel
// construction between ranks of one machine, mirroring MSCCL++'s
// bootstrapping API (connection setup, memory registration, semaphore
// allocation).
type Communicator struct {
	M *machine.Machine

	nextChan int
}

// NewCommunicator returns a communicator over all ranks of m.
func NewCommunicator(m *machine.Machine) *Communicator {
	return &Communicator{M: m}
}

// Ranks returns the number of ranks in the communicator.
func (c *Communicator) Ranks() int { return len(c.M.GPUs) }

func (c *Communicator) id() int {
	c.nextChan++
	return c.nextChan
}

// Channel is the synchronization-and-transfer interface shared by
// PortChannel and MemoryChannel endpoints, letting collective algorithms be
// written generically over the transport (paper Section 6: 2PR runs over
// either PortChannel or MemoryChannel).
type Channel interface {
	// Put transfers size bytes from the bound local buffer at srcOff to the
	// bound remote buffer at dstOff. When invoked by a thread-block group,
	// each block tb of nTB moves its shard. Asynchronous: completion is
	// observed via Signal/Wait (receiver) and Flush (sender).
	Put(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int)
	// PutWithSignal fuses Put and Signal into one primitive call.
	PutWithSignal(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int)
	// Signal asynchronously increments the peer's semaphore, ordered after
	// all previous transfers on this channel.
	Signal(k *machine.Kernel)
	// Wait blocks until the local semaphore reaches the next expected value.
	Wait(k *machine.Kernel)
	// Flush blocks until all previous transfers on this channel are complete
	// from the sender's perspective (the source buffer may be reused).
	Flush(k *machine.Kernel)
	// LocalRank and RemoteRank identify the endpoint.
	LocalRank() int
	RemoteRank() int
}

// endpoint is the state and the rules MemoryChannel and PortChannel share:
// one rank's end of a point-to-point channel, its bound buffers and the
// semaphore pair that carries signals in each direction.
type endpoint struct {
	m         *machine.Machine
	kind      string // channel type, named in misuse panics
	local     int
	remote    int
	localBuf  *mem.Buffer
	remoteBuf *mem.Buffer

	sendSem    *sim.Semaphore // lives on the remote GPU; our signal bumps it
	recvSem    *sim.Semaphore // lives locally; the peer's signal bumps it
	expected   uint64
	lastSignal sim.Time
}

// newEndpoints validates a channel pair between ranks a and b with
// per-direction bindings (a puts aSrc->aDst, b puts bSrc->bDst) and returns
// its two endpoints. tag is prefix followed by a fresh channel id; the
// semaphore carrying a's signals is named tag+"/a->b".
func (c *Communicator) newEndpoints(kind, prefix string, a, b int, aSrc, aDst, bSrc, bDst *mem.Buffer) (ea, eb endpoint, tag string) {
	n := len(c.M.GPUs)
	if a < 0 || a >= n || b < 0 || b >= n || a == b {
		panic(fmt.Sprintf("core: invalid channel ranks (%d,%d) of %d", a, b, n))
	}
	// Each direction registers one buffer on a and one on b.
	for _, bufs := range [][2]*mem.Buffer{{aSrc, bSrc}, {bDst, aDst}} {
		if bufs[0] == nil || bufs[1] == nil {
			panic("core: channel requires registered buffers on both ranks")
		}
		if bufs[0].Rank != a || bufs[1].Rank != b {
			panic(fmt.Sprintf("core: buffer ranks (%d,%d) do not match channel ranks (%d,%d)",
				bufs[0].Rank, bufs[1].Rank, a, b))
		}
	}
	tag = prefix + strconv.Itoa(c.id())
	ea = endpoint{m: c.M, kind: kind, local: a, remote: b, localBuf: aSrc, remoteBuf: aDst}
	eb = endpoint{m: c.M, kind: kind, local: b, remote: a, localBuf: bSrc, remoteBuf: bDst}
	ea.sendSem = sim.NewSemaphore(c.M.Engine, tag+"/"+ea.dir())
	eb.sendSem = sim.NewSemaphore(c.M.Engine, tag+"/"+eb.dir())
	ea.recvSem, eb.recvSem = eb.sendSem, ea.sendSem
	return ea, eb, tag
}

// dir names the endpoint's direction, "local->remote".
func (e *endpoint) dir() string { return strconv.Itoa(e.local) + "->" + strconv.Itoa(e.remote) }

// LocalRank returns the owning rank.
func (e *endpoint) LocalRank() int { return e.local }

// RemoteRank returns the peer rank.
func (e *endpoint) RemoteRank() int { return e.remote }

// checkKernel panics when a primitive is invoked from the wrong GPU: channel
// endpoints are per-rank objects, like their CUDA counterparts.
func (e *endpoint) checkKernel(k *machine.Kernel) {
	if k.GPU.Rank != e.local {
		panic(fmt.Sprintf("core: %s of rank %d used from rank %d", e.kind, e.local, k.GPU.Rank))
	}
}

// checkBufs panics unless dst lives on dstRank and src on srcRank.
func checkBufs(op string, dst *mem.Buffer, dstRank int, src *mem.Buffer, srcRank int) {
	if dst.Rank != dstRank || src.Rank != srcRank {
		panic("core: " + op + " buffer ranks do not match channel endpoints")
	}
}

// signal schedules one increment of the peer's semaphore, issued at now. It
// arrives after the signal latency, no earlier than SemSignalCost after
// lastData (the data of the transfers it follows), and after this
// endpoint's previous signal, so signals stay ordered.
func (e *endpoint) signal(now, lastData sim.Time) {
	arrive := max(now+e.m.Fabric.SignalLatency(e.local, e.remote), lastData+e.m.Model.SemSignalCost)
	arrive = max(arrive, e.lastSignal+1)
	e.lastSignal = arrive
	e.sendSem.SignalAt(arrive)
}

// Wait blocks until the local semaphore reaches the next expected value
// (busy-wait while-loop in the paper).
func (e *endpoint) Wait(k *machine.Kernel) {
	e.checkKernel(k)
	c := k.Call()
	c.Obj = e
	k.Submit(c, waitStart, nil)
}

// waitStart is Wait's call-time part: it expects the next signal.
func waitStart(k *machine.Kernel, c *machine.Call) {
	e := c.Obj.(*endpoint)
	e.expected++
	k.WakeAfter(e.recvSem, e.expected, k.Model().SemWaitWake)
}

// issueCall returns the record of a call whose n-byte shard lands before
// the block would have woken (a reduce, a reduce-put, a switch operation),
// with obj and n set, for the caller to fill and Issue: its booking step
// books the transfer on obj, lands it and ends the call. An empty shard
// pays the call overhead only, and issueCall returns nil.
func issueCall(k *machine.Kernel, obj any, n int64) *machine.Call {
	if n == 0 {
		k.Elapse(k.Model().InstrOverhead)
		return nil
	}
	c := k.Call()
	c.Obj, c.N = obj, n
	return c
}
