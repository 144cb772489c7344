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
//
// Exchange is a state machine, not straight-line code in the thread
// block's process. The process parks once per call, and the record runs
// each step as a sim.Action: where a straight-line send or receive would
// sleep, the record schedules itself with Engine.Do at the wake time, and
// where it would wait on a slot semaphore, it queues itself with
// Semaphore.Await at the same threshold. The step that finishes the last
// leg resumes the process inline. Do takes the sequence number the sleep
// would have taken, and the semaphore fires the record exactly where it
// would have dispatched the waiting process, so every step runs at the
// same point of the event order, each process wake becomes one Action
// event, and the event count does not change. What it saves is a pair of
// coroutine switches per step.
package twosided

import (
	"fmt"
	"sync"

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
//
// A send is synchronous: under ProtoSimple it waits for the receiver to
// free the slot, then pays the rendezvous overhead, books the hop and
// lands the chunk in the staging slot; a same-node send occupies the
// sending SMs until its stores are issued. A receive waits for the slot's
// data, sleeps once for the wake-up and the copy out of the FIFO (the
// baseline's extra memory pass), applies it, and releases the slot.
//
// The call's record comes from a free list of finished calls' records,
// and it copies the legs into its own slice, so a warm Exchange allocates
// nothing and the caller's leg slices do not escape. Exchange parks the
// block itself, so it first waits for the block's queued Primitive API
// calls (machine.Kernel.Drain).
func Exchange(k *machine.Kernel, sends, recvs []Leg) {
	k.Drain()
	idle.Lock()
	x := idle.x
	if x != nil {
		idle.x = x.next
	}
	idle.Unlock()
	if x == nil {
		x = new(exchange)
	}
	x.k = k
	x.legs = append(append(x.legs[:0], sends...), recvs...)
	x.sends = len(sends)
	x.i, x.j, x.more, x.at = 0, 0, false, legNext
	if x.run() {
		x.release()
		return
	}
	k.Park("twosided exchange")
}

// exchange is one Exchange call in progress: a resumable state machine
// over the call's legs that runs as an engine Action while the kernel's
// process is parked.
type exchange struct {
	k     *machine.Kernel
	legs  []Leg // the call's send legs, then its receive legs
	sends int   // number of send legs
	i     int64 // current window
	j     int   // current leg
	more  bool  // some leg had bytes in window i
	at    step  // where the current leg resumes

	off, n int64 // the current leg's window
	slot   int64 // send: the staging slot

	next *exchange // free-list link
}

// idle is the free list of exchange records, shared by every machine in the
// process like sim's coroutine pool: a record holds nothing between calls,
// so the list holds as many records as exchanges were ever in flight at
// once, not one per connection or per thread block.
var idle struct {
	sync.Mutex
	x *exchange
}

// step is a point in a leg's transfer where the exchange resumes.
type step uint8

const (
	legNext      step = iota // start the next leg with bytes in window i
	sendOverhead             // ProtoSimple: slot free, pay the rendezvous overhead
	sendHop                  // book the intra-node hop, or pay the proxy delay
	sendRDMA                 // inter-node: book the RDMA after the proxy delay
	recvCopy                 // data arrived: sleep for the wake-up and the copy out
	recvRelease              // apply the slot to the buffer and release it
)

// run advances the exchange until it blocks, reporting false, or has
// finished every leg, reporting true. It blocks where a straight-line
// send or receive would: sleep schedules the record at the wake time, and
// a slot wait queues it on the semaphore for the kernel's process.
func (x *exchange) run() bool {
	k := x.k
	model := k.Model()
	for {
		switch x.at {
		case legNext:
			if x.j == len(x.legs) {
				if !x.more {
					return true
				}
				x.i, x.j, x.more = x.i+1, 0, false
			}
			l := &x.legs[x.j]
			x.off, x.n = l.window(x.i)
			if x.n <= 0 {
				x.j++
				continue
			}
			x.more = true
			c := l.Conn
			if x.j < x.sends {
				if k.GPU.Rank != c.src {
					panic(fmt.Sprintf("twosided: send on conn %d->%d from rank %d", c.src, c.dst, k.GPU.Rank))
				}
				c.sendSeq++
				x.at = sendHop
				if c.proto == ProtoSimple {
					x.at = sendOverhead
					if c.spaceFree.Await(x, k.P, c.sendSeq) {
						return false
					}
				}
			} else {
				if k.GPU.Rank != c.dst {
					panic(fmt.Sprintf("twosided: recv on conn %d->%d from rank %d", c.src, c.dst, k.GPU.Rank))
				}
				c.recvSeq++
				x.at = recvCopy
				if c.dataReady.Await(x, k.P, c.recvSeq) {
					return false
				}
			}
		case sendOverhead:
			x.at = sendHop
			return x.sleep(k.Now() + model.BaselineProtoOverhead)
		case sendHop:
			c := x.legs[x.j].Conn
			x.slot = int64((c.sendSeq - 1) % uint64(c.slots))
			if !c.m.Fabric.SameNode(c.src, c.dst) {
				// Inter-node: staged through the NIC proxy path.
				x.at = sendRDMA
				return x.sleep(k.Now() + model.FifoPushCost + model.ProxyPollInterval/2)
			}
			complete := x.land(c.m.Fabric.P2P(k.Now(), c.src, c.dst, c.wire(x.n), model.StagingCopyBWPerTB))
			// Thread-copy occupies the sending SMs until the stores are issued.
			return x.sleep(complete - c.m.Env.IntraLat)
		case sendRDMA:
			c := x.legs[x.j].Conn
			x.land(c.m.Fabric.RDMA(k.Now(), c.src, c.dst, c.wire(x.n)))
		case recvCopy:
			x.at = recvRelease
			return x.sleep(k.Now() + model.SemWaitWake + timing.XferTime(x.n, model.StagingCopyBWPerTB) + model.BaselineProtoOverhead/2)
		case recvRelease:
			l := &x.legs[x.j]
			c := l.Conn
			slotOff := int64((c.recvSeq-1)%uint64(c.slots)) * c.chunk
			if l.Reduce {
				l.Buf.AccumulateFrom(c.stage, x.off, slotOff, x.n)
			} else {
				c.stage.CopyTo(l.Buf, x.off, slotOff, x.n)
			}
			// Release the slot; the flag travels back to the sender.
			c.spaceFree.SignalAt(k.Now() + c.m.Fabric.SignalLatency(c.dst, c.src))
			x.j, x.at = x.j+1, legNext
		}
	}
}

// land lands the current send leg's chunk in its staging slot at complete,
// or when the conn's previous chunk is visible if that is later, and moves
// on to the next leg. It returns the landing time.
func (x *exchange) land(complete sim.Time) sim.Time {
	l := &x.legs[x.j]
	c := l.Conn
	complete = max(complete, c.lastVisible)
	c.lastVisible = complete
	c.m.Land(complete, machine.Landing{Op: machine.LandCopy, Dst: c.stage, DstOff: x.slot * c.chunk,
		Src: l.Buf, SrcOff: x.off, N: x.n, Sem: c.dataReady, SemAdd: 1})
	x.j, x.at = x.j+1, legNext
	return complete
}

// sleep schedules the exchange to resume at t, where a sleeping process
// would have woken (a time in the past is now), and reports false.
func (x *exchange) sleep(t sim.Time) bool {
	x.k.P.Engine().Do(t, x)
	return false
}

// Fire runs the exchange's next steps; when they finish the last leg, it
// returns the record to its free list and resumes the kernel's process.
func (x *exchange) Fire() {
	if !x.run() {
		return
	}
	p := x.k.P
	x.release()
	p.Fire()
}

// release returns a finished exchange's record to the free list, dropping
// its references to the call.
func (x *exchange) release() {
	clear(x.legs)
	x.k = nil
	idle.Lock()
	x.next, idle.x = idle.x, x
	idle.Unlock()
}

// wire returns the bytes a chunk of n bytes puts on the wire: ProtoLL's
// inline flags double it.
func (c *Conn) wire(n int64) int64 {
	if c.proto == ProtoLL {
		return 2 * n
	}
	return n
}
