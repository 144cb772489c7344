package core

import (
	"fmt"
	"strconv"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/proxy"
	"mscclpp/internal/sim"
)

// PortChannel is one endpoint of a port-mapped I/O channel: the GPU enqueues
// requests into a FIFO drained by a dedicated CPU proxy thread, which drives
// a DMA engine (intra-node) or an RDMA NIC (inter-node). See paper §4.1 and
// Figure 4.
//
// Put is zero-copy, one-sided and asynchronous: the GPU is free immediately
// after pushing the request, and peer GPUs execute code while the transfer
// is in flight.
type PortChannel struct {
	comm      *Communicator
	local     int
	remote    int
	localBuf  *mem.Buffer
	remoteBuf *mem.Buffer

	svc *proxy.Service

	sendSem  *sim.Semaphore // on the remote GPU
	recvSem  *sim.Semaphore // local
	expected uint64

	flushSem   *sim.Semaphore // local; proxy bumps per completed flush
	flushCount uint64

	// proxy-side ordering state
	lastComplete sim.Time // arrival time of the latest transfer's data
	lastSignal   sim.Time
}

// NewPortChannelPair connects ranks a and b with port-mapped channels; each
// endpoint gets its own CPU proxy thread (paper: "each channel creates its
// own CPU thread").
func (c *Communicator) NewPortChannelPair(a, b int, abuf, bbuf *mem.Buffer) (*PortChannel, *PortChannel) {
	return c.NewPortChannelPairEx(a, b, abuf, bbuf, bbuf, abuf)
}

// NewPortChannelPairEx connects ranks a and b with independent per-direction
// buffer bindings (a puts aSrc->aDst, b puts bSrc->bDst), analogous to
// NewMemoryChannelPairEx.
func (c *Communicator) NewPortChannelPairEx(a, b int, aSrc, aDst, bSrc, bDst *mem.Buffer) (*PortChannel, *PortChannel) {
	validateEndpoint(c.M, a, b, aSrc, bSrc)
	validateEndpoint(c.M, a, b, bDst, aDst)
	e := c.M.Engine
	id, as, bs := strconv.Itoa(c.id()), strconv.Itoa(a), strconv.Itoa(b)
	semAB := sim.NewSemaphore(e, "pc"+id+"/"+as+"->"+bs)
	semBA := sim.NewSemaphore(e, "pc"+id+"/"+bs+"->"+as)
	ca := &PortChannel{comm: c, local: a, remote: b, localBuf: aSrc, remoteBuf: aDst,
		sendSem: semAB, recvSem: semBA,
		flushSem: sim.NewSemaphore(e, "pc"+id+"/flush@"+as)}
	cb := &PortChannel{comm: c, local: b, remote: a, localBuf: bSrc, remoteBuf: bDst,
		sendSem: semBA, recvSem: semAB,
		flushSem: sim.NewSemaphore(e, "pc"+id+"/flush@"+bs)}
	ca.svc = c.newProxy("pc"+id+"@"+as, ca)
	cb.svc = c.newProxy("pc"+id+"@"+bs, cb)
	return ca, cb
}

func (c *Communicator) newProxy(name string, ch *PortChannel) *proxy.Service {
	model := c.M.Model
	cfg := proxy.Config{
		Capacity:   128,
		PushCost:   model.FifoPushCost,
		PollDelay:  model.ProxyPollInterval / 2,
		HandleCost: model.ProxyHandleCost,
	}
	return proxy.NewService(c.M.Engine, name, cfg, ch.handle)
}

// LocalRank returns the owning rank.
func (ch *PortChannel) LocalRank() int { return ch.local }

// RemoteRank returns the peer rank.
func (ch *PortChannel) RemoteRank() int { return ch.remote }

func (ch *PortChannel) checkKernel(k *machine.Kernel) {
	if k.GPU.Rank != ch.local {
		panic(fmt.Sprintf("core: PortChannel of rank %d used from rank %d",
			ch.local, k.GPU.Rank))
	}
}

// handle processes one proxy request in proxy context at virtual time now
// (paper Figure 4 steps 3-7). It returns the time at which the proxy may
// pick up the next request.
func (ch *PortChannel) handle(now sim.Time, req proxy.Request) sim.Time {
	f := ch.comm.M.Fabric
	switch req.Kind {
	case proxy.KindPut, proxy.KindPutSignal, proxy.KindPutSignalFlush:
		var complete sim.Time
		if f.SameNode(ch.local, ch.remote) {
			complete = f.DMA(now, ch.local, ch.remote, req.Size)
		} else {
			complete = f.RDMA(now, ch.local, ch.remote, req.Size)
		}
		// In-order delivery per channel (same DMA engine / same QP).
		complete = max(complete, ch.lastComplete)
		ch.lastComplete = complete
		ch.comm.M.Land(complete, machine.Landing{Op: machine.LandCopy, Dst: ch.remoteBuf, DstOff: req.DstOff,
			Src: ch.localBuf, SrcOff: req.SrcOff, N: req.Size})
		if req.Kind == proxy.KindPutSignal || req.Kind == proxy.KindPutSignalFlush {
			ch.issueSignal(now, complete)
		}
		if req.Kind == proxy.KindPutSignalFlush {
			return ch.completeFlush(now, complete)
		}
	case proxy.KindSignal:
		ch.issueSignal(now, ch.lastComplete)
	case proxy.KindFlush:
		return ch.completeFlush(now, ch.lastComplete)
	default:
		panic("core: unknown proxy request kind " + req.Kind.String())
	}
	return now
}

// issueSignal delivers an ordered atomic increment to the peer semaphore: it
// arrives no earlier than the data of preceding transfers (same-QP ordering
// for RDMA; fenced DMA for NVLink).
func (ch *PortChannel) issueSignal(now, lastData sim.Time) {
	f := ch.comm.M.Fabric
	model := ch.comm.M.Model
	arrive := max(now+f.SignalLatency(ch.local, ch.remote), lastData+model.SemSignalCost)
	arrive = max(arrive, ch.lastSignal+1)
	ch.lastSignal = arrive
	ch.sendSem.AddAt(arrive, 1)
}

// completeFlush stalls the proxy until all prior transfers complete
// (ibv_poll_cq loop), then releases the GPU-side flush waiter. The returned
// stall time delays subsequent requests, exactly as the paper describes.
func (ch *PortChannel) completeFlush(now, lastData sim.Time) sim.Time {
	model := ch.comm.M.Model
	done := max(now, lastData) + model.FlushCheckCost
	ch.flushSem.AddAt(done, 1)
	return done
}

// Put pushes a put request for this block's shard. Asynchronous: returns as
// soon as the request is enqueued.
func (ch *PortChannel) Put(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.enqueue(k, proxy.KindPut, dstOff, srcOff, size, tb, nTB)
}

// PutWithSignal pushes the fused put+signal request.
func (ch *PortChannel) PutWithSignal(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.enqueue(k, proxy.KindPutSignal, dstOff, srcOff, size, tb, nTB)
}

// PutWithSignalAndFlush pushes the fused put+signal+flush request; pair with
// WaitFlush to block until completion.
func (ch *PortChannel) PutWithSignalAndFlush(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int) {
	ch.flushCount++
	ch.enqueue(k, proxy.KindPutSignalFlush, dstOff, srcOff, size, tb, nTB)
}

func (ch *PortChannel) enqueue(k *machine.Kernel, kind proxy.Kind, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	k.Elapse(k.Model().InstrOverhead)
	off, n := machine.Shard(size, tb, nTB)
	if n == 0 && (kind == proxy.KindPut) {
		return
	}
	ch.svc.Push(k.P, proxy.Request{Kind: kind, DstOff: dstOff + off, SrcOff: srcOff + off, Size: n})
}

// Signal pushes a signal request (asynchronous, ordered after prior puts).
func (ch *PortChannel) Signal(k *machine.Kernel) {
	ch.checkKernel(k)
	k.Elapse(k.Model().InstrOverhead)
	ch.svc.Push(k.P, proxy.Request{Kind: proxy.KindSignal})
}

// Wait blocks until the local semaphore reaches the next expected value.
func (ch *PortChannel) Wait(k *machine.Kernel) {
	ch.checkKernel(k)
	ch.expected++
	ch.recvSem.WaitGE(k.P, ch.expected)
	k.Elapse(k.Model().SemWaitWake)
}

// Flush pushes a flush request and blocks until the proxy confirms all prior
// transfers have completed, after which the source buffer may be rewritten.
func (ch *PortChannel) Flush(k *machine.Kernel) {
	ch.checkKernel(k)
	k.Elapse(k.Model().InstrOverhead)
	ch.flushCount++
	ch.svc.Push(k.P, proxy.Request{Kind: proxy.KindFlush})
	ch.WaitFlush(k)
}

// WaitFlush blocks until all flushes requested so far have completed.
func (ch *PortChannel) WaitFlush(k *machine.Kernel) {
	ch.checkKernel(k)
	ch.flushSem.WaitGE(k.P, ch.flushCount)
	k.Elapse(k.Model().SemWaitWake)
}

var _ Channel = (*PortChannel)(nil)
