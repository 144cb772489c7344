// Package twosided implements the synchronous, two-sided send/recv substrate
// that NCCL, RCCL and MSCCL are built on (paper Sections 2.2-2.3): data
// moves through internal staging FIFO buffers with per-chunk rendezvous
// flags, paying an extra receiver-side copy and blocking synchronization on
// every hop — exactly the mechanisms whose removal is MSCCL++'s Primitive
// API contribution.
//
// Exchange is the one chunk pipeline the ncclsim and mscclsim baseline
// libraries share: every algorithm describes its hops as send and receive
// Legs, and Exchange moves them through the staging slots window by window.
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

// Leg is one side of a chunk-pipelined transfer: N bytes of Buf from Off
// through Conn. A receive leg accumulates into Buf when Reduce is set and
// copies otherwise; a send leg ignores Reduce.
type Leg struct {
	Conn   *Conn
	Buf    *mem.Buffer
	Off, N int64
	Reduce bool
}

// window returns the buffer offset and length of the leg's i-th
// chunk-sized window; the length is <= 0 past the leg's end.
func (l *Leg) window(i int64) (off, n int64) {
	o := i * l.Conn.chunk
	return l.Off + o, min(l.N-o, l.Conn.chunk)
}

// Exchange runs legs chunk by chunk: for each window i it sends chunk i of
// every send leg with bytes left, then receives chunk i of every receive
// leg with bytes left, until every leg is done. Legs may differ in length.
// Interleaving windows keeps slot backpressure from deadlocking peers that
// send to each other (NCCL and MSCCL drive send and receive legs from
// separate threads; interleaving models the same progress guarantee).
func Exchange(k *machine.Kernel, sends, recvs []Leg) {
	for i := int64(0); ; i++ {
		more := false
		for j := range sends {
			if off, n := sends[j].window(i); n > 0 {
				sends[j].Conn.send(k, sends[j].Buf, off, n)
				more = true
			}
		}
		for j := range recvs {
			if off, n := recvs[j].window(i); n > 0 {
				recvs[j].Conn.recv(k, recvs[j].Buf, off, n, recvs[j].Reduce)
				more = true
			}
		}
		if !more {
			return
		}
	}
}

// send transfers n bytes (n <= chunk) from src[off:] into the next staging
// slot. Synchronous: under ProtoSimple the call blocks on slot rendezvous
// before writing, so the source buffer is reusable on return.
func (c *Conn) send(k *machine.Kernel, src *mem.Buffer, off, n int64) {
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
	c.m.Land(complete, machine.Landing{Op: machine.LandCopy, Dst: c.stage, DstOff: slot * c.chunk,
		Src: src, SrcOff: off, N: n, Sem: c.dataReady, SemAdd: 1})
	if c.m.Fabric.SameNode(c.src, c.dst) {
		// Thread-copy occupies the sending SMs until the stores are issued.
		k.P.SleepUntil(complete - c.m.Env.IntraLat)
	}
}

// recv drains the next staging slot into dst[off:], accumulating when
// reduce is set and copying otherwise, then releases the slot.
func (c *Conn) recv(k *machine.Kernel, dst *mem.Buffer, off, n int64, reduce bool) {
	if k.GPU.Rank != c.dst {
		panic(fmt.Sprintf("twosided: recv on conn %d->%d from rank %d", c.src, c.dst, k.GPU.Rank))
	}
	model := k.Model()
	c.recvSeq++
	c.dataReady.WaitGE(k.P, c.recvSeq)
	// One sleep for the wake-up and the receiver-side copy out of the FIFO
	// (the baseline's extra memory pass): nothing happens between them.
	k.Elapse(model.SemWaitWake + timing.XferTime(n, model.StagingCopyBWPerTB) + model.BaselineProtoOverhead/2)
	slotOff := int64((c.recvSeq-1)%uint64(c.slots)) * c.chunk
	if reduce {
		dst.AccumulateFrom(c.stage, off, slotOff, n)
	} else {
		c.stage.CopyTo(dst, off, slotOff, n)
	}
	// Release the slot; the flag travels back to the sender.
	c.spaceFree.AddAt(k.Now()+c.m.Fabric.SignalLatency(c.dst, c.src), 1)
}
