package core

import (
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
	endpoint

	svc *proxy.Service

	flushSem   *sim.Semaphore // local; proxy bumps per completed flush
	flushCount uint64         // flushes requested; the proxy Service counts them

	lastComplete sim.Time // proxy-side: arrival time of the latest transfer's data
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
	ea, eb, tag := c.newEndpoints("PortChannel", "pc", a, b, aSrc, aDst, bSrc, bDst)
	as, bs := strconv.Itoa(a), strconv.Itoa(b)
	ca := &PortChannel{endpoint: ea, flushSem: sim.NewSemaphore(c.M.Engine, tag+"/flush@"+as)}
	cb := &PortChannel{endpoint: eb, flushSem: sim.NewSemaphore(c.M.Engine, tag+"/flush@"+bs)}
	ca.svc = c.newProxy(tag+"@"+as, ca)
	cb.svc = c.newProxy(tag+"@"+bs, cb)
	ca.svc.CountFlushes(&ca.flushCount)
	cb.svc.CountFlushes(&cb.flushCount)
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

// handle processes one proxy request in proxy context at virtual time now
// (paper Figure 4 steps 3-7). It returns the time at which the proxy may
// pick up the next request. A signal arrives no earlier than the data of
// preceding transfers (same-QP ordering for RDMA; fenced DMA for NVLink).
func (ch *PortChannel) handle(now sim.Time, req proxy.Request) sim.Time {
	f := ch.m.Fabric
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
		ch.m.Land(complete, machine.Landing{Op: machine.LandCopy, Dst: ch.remoteBuf, DstOff: req.DstOff,
			Src: ch.localBuf, SrcOff: req.SrcOff, N: req.Size})
		if req.Kind == proxy.KindPutSignal || req.Kind == proxy.KindPutSignalFlush {
			ch.signal(now, complete)
		}
		if req.Kind == proxy.KindPutSignalFlush {
			return ch.completeFlush(now, complete)
		}
	case proxy.KindSignal:
		ch.signal(now, ch.lastComplete)
	case proxy.KindFlush:
		return ch.completeFlush(now, ch.lastComplete)
	default:
		panic("core: unknown proxy request kind " + req.Kind.String())
	}
	return now
}

// completeFlush stalls the proxy until all prior transfers complete
// (ibv_poll_cq loop), then releases the GPU-side flush waiter. The returned
// stall time delays subsequent requests, exactly as the paper describes.
func (ch *PortChannel) completeFlush(now, lastData sim.Time) sim.Time {
	model := ch.m.Model
	done := max(now, lastData) + model.FlushCheckCost
	ch.flushSem.SignalAt(done)
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
	ch.enqueue(k, proxy.KindPutSignalFlush, dstOff, srcOff, size, tb, nTB)
}

// enqueue pushes this block's shard of a put request after the call
// overhead. A put of an empty shard pays the overhead and pushes nothing.
func (ch *PortChannel) enqueue(k *machine.Kernel, kind proxy.Kind, dstOff, srcOff, size int64, tb, nTB int) {
	ch.checkKernel(k)
	off, n := machine.Shard(size, tb, nTB)
	if n == 0 && kind == proxy.KindPut {
		k.Elapse(k.Model().InstrOverhead)
		return
	}
	ch.svc.Push(k, k.Model().InstrOverhead, proxy.Request{Kind: kind, DstOff: dstOff + off, SrcOff: srcOff + off, Size: n})
}

// Signal pushes a signal request (asynchronous, ordered after prior puts).
func (ch *PortChannel) Signal(k *machine.Kernel) {
	ch.checkKernel(k)
	ch.svc.Push(k, k.Model().InstrOverhead, proxy.Request{Kind: proxy.KindSignal})
}

// Flush pushes a flush request and blocks until the proxy confirms all prior
// transfers have completed, after which the source buffer may be rewritten.
func (ch *PortChannel) Flush(k *machine.Kernel) {
	ch.checkKernel(k)
	ch.svc.Push(k, k.Model().InstrOverhead, proxy.Request{Kind: proxy.KindFlush})
	ch.WaitFlush(k)
}

// WaitFlush blocks until all flushes requested so far have completed.
func (ch *PortChannel) WaitFlush(k *machine.Kernel) {
	ch.checkKernel(k)
	c := k.Call()
	c.Obj = ch
	k.Submit(c, waitFlush, nil)
}

// waitFlush is WaitFlush's call-time part: it waits for every flush
// requested by then.
func waitFlush(k *machine.Kernel, c *machine.Call) {
	ch := c.Obj.(*PortChannel)
	k.WakeAfter(ch.flushSem, ch.flushCount, k.Model().SemWaitWake)
}

var _ Channel = (*PortChannel)(nil)
