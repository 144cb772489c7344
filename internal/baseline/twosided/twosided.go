// Package twosided implements the synchronous, two-sided send/recv substrate
// that NCCL, RCCL and MSCCL are built on (paper Sections 2.2-2.3): data
// moves through internal staging FIFO buffers with per-chunk rendezvous
// flags, paying an extra receiver-side copy and blocking synchronization on
// every hop — exactly the mechanisms whose removal is MSCCL++'s Primitive
// API contribution.
//
// The substrate is shared by the ncclsim and mscclsim baseline libraries.
package twosided

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
)

// Proto selects the baseline transfer protocol.
type Proto int

const (
	// ProtoSimple is the bulk protocol: full-bandwidth staging writes with
	// rendezvous (send blocks until the receiver has posted buffer space).
	ProtoSimple Proto = iota
	// ProtoLL is the baseline low-latency protocol: flags inline with data
	// (no rendezvous round-trip) at the cost of doubled traffic.
	ProtoLL
)

// String names the protocol as the baseline kernels do: "Simple" or "LL".
func (p Proto) String() string {
	if p == ProtoLL {
		return "LL"
	}
	return "Simple"
}

// Conn is a directed connection src -> dst through a staging FIFO on the
// receiver.
type Conn struct {
	m        *machine.Machine
	src, dst int
	proto    Proto

	stage *mem.Buffer
	slots int
	chunk int64

	dataReady *sim.Semaphore // sender bumps after a slot's data lands
	spaceFree *sim.Semaphore // receiver bumps after draining a slot
	sendSeq   uint64
	recvSeq   uint64

	lastVisible sim.Time
}

// Config sizes the staging FIFO.
type Config struct {
	Slots int   // FIFO depth (default 8)
	Chunk int64 // slot size in bytes (default 512 KiB)
	Proto Proto
}

// NewConn builds a directed connection. The staging buffer lives on the
// destination rank, as in NCCL.
func NewConn(m *machine.Machine, src, dst int, cfg Config) *Conn {
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 512 << 10
	}
	c := &Conn{
		m: m, src: src, dst: dst, proto: cfg.Proto,
		slots: cfg.Slots, chunk: cfg.Chunk,
		stage:     m.Alloc(dst, fmt.Sprintf("stage/%d->%d", src, dst), cfg.Chunk*int64(cfg.Slots)),
		dataReady: sim.NewSemaphore(m.Engine, fmt.Sprintf("ts.data/%d->%d", src, dst)),
		spaceFree: sim.NewSemaphore(m.Engine, fmt.Sprintf("ts.space/%d->%d", src, dst)),
	}
	c.spaceFree.Add(uint64(cfg.Slots))
	return c
}

// Send transfers n bytes (n <= Chunk) from src[off:] into the next staging
// slot. Synchronous: under ProtoSimple the call blocks on slot rendezvous
// before writing, so the source buffer is reusable on return.
func (c *Conn) Send(k *machine.Kernel, src *mem.Buffer, off, n int64) {
	if n > c.chunk {
		panic(fmt.Sprintf("twosided: send %d exceeds chunk %d", n, c.chunk))
	}
	if k.GPU.Rank != c.src {
		panic(fmt.Sprintf("twosided: send on conn %d->%d from rank %d", c.src, c.dst, k.GPU.Rank))
	}
	model := k.Model()
	c.sendSeq++
	if c.proto == ProtoSimple {
		// Rendezvous: block until the receiver freed the slot.
		c.spaceFree.WaitGE(k.P, c.sendSeq)
		k.Elapse(model.BaselineProtoOverhead)
	}
	slot := int64((c.sendSeq - 1) % uint64(c.slots))
	wire := n
	if c.proto == ProtoLL {
		wire = 2 * n
	}
	var complete sim.Time
	if c.m.Fabric.SameNode(c.src, c.dst) {
		complete = c.m.Fabric.P2P(k.Now(), c.src, c.dst, wire, model.StagingCopyBWPerTB)
	} else {
		// Inter-node: staged through the NIC proxy path.
		k.Elapse(model.FifoPushCost + model.ProxyPollInterval/2)
		complete = c.m.Fabric.RDMA(k.Now(), c.src, c.dst, wire)
	}
	if complete < c.lastVisible {
		complete = c.lastVisible
	}
	c.lastVisible = complete
	stage, seq := c.stage, c.sendSeq
	e := c.m.Engine
	srcBuf, srcOff, nn, slotOff := src, off, n, slot*c.chunk
	e.At(complete, func() {
		srcBuf.CopyTo(stage, slotOff, srcOff, nn)
		_ = seq
		c.dataReady.Add(1)
	})
	if c.m.Fabric.SameNode(c.src, c.dst) {
		// Thread-copy occupies the sending SMs until the stores are issued.
		k.P.SleepUntil(complete - c.m.Env.IntraLat)
	}
}

// RecvCopy drains the next staging slot into dst[off:].
func (c *Conn) RecvCopy(k *machine.Kernel, dst *mem.Buffer, off, n int64) {
	c.recvEpilogue(k, n, func(slotOff int64) {
		c.stage.CopyTo(dst, off, slotOff, n)
	})
}

// RecvReduce drains the next staging slot, accumulating into dst[off:].
func (c *Conn) RecvReduce(k *machine.Kernel, dst *mem.Buffer, off, n int64) {
	c.recvEpilogue(k, n, func(slotOff int64) {
		dst.AccumulateFrom(c.stage, off, slotOff, n)
	})
}

func (c *Conn) recvEpilogue(k *machine.Kernel, n int64, apply func(slotOff int64)) {
	if k.GPU.Rank != c.dst {
		panic(fmt.Sprintf("twosided: recv on conn %d->%d from rank %d", c.src, c.dst, k.GPU.Rank))
	}
	model := k.Model()
	c.recvSeq++
	c.dataReady.WaitGE(k.P, c.recvSeq)
	k.Elapse(model.SemWaitWake)
	// Receiver-side copy out of the FIFO: the baseline's extra memory pass.
	k.Elapse(timing.XferTime(n, model.StagingCopyBWPerTB) + model.BaselineProtoOverhead/2)
	slot := int64((c.recvSeq - 1) % uint64(c.slots))
	apply(slot * c.chunk)
	// Release the slot; the flag travels back to the sender.
	lat := c.m.Fabric.SignalLatency(c.dst, c.src)
	free := c.spaceFree
	c.m.Engine.At(k.Now()+lat, func() { free.Add(1) })
}

// SendBuffer streams a whole region chunk by chunk (helper for slice-sized
// steps).
func (c *Conn) SendBuffer(k *machine.Kernel, src *mem.Buffer, off, n int64) {
	for sent := int64(0); sent < n; sent += c.chunk {
		cn := n - sent
		if cn > c.chunk {
			cn = c.chunk
		}
		c.Send(k, src, off+sent, cn)
	}
}

// RecvCopyBuffer drains a whole region chunk by chunk.
func (c *Conn) RecvCopyBuffer(k *machine.Kernel, dst *mem.Buffer, off, n int64) {
	for got := int64(0); got < n; got += c.chunk {
		cn := n - got
		if cn > c.chunk {
			cn = c.chunk
		}
		c.RecvCopy(k, dst, off+got, cn)
	}
}

// RecvReduceBuffer drains and accumulates a whole region chunk by chunk.
func (c *Conn) RecvReduceBuffer(k *machine.Kernel, dst *mem.Buffer, off, n int64) {
	for got := int64(0); got < n; got += c.chunk {
		cn := n - got
		if cn > c.chunk {
			cn = c.chunk
		}
		c.RecvReduce(k, dst, off+got, cn)
	}
}
