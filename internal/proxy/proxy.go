// Package proxy implements the CPU-side proxy service that drives
// PortChannel data transfers (paper Figure 4).
//
// Each PortChannel owns a proxy Service: a simulated CPU thread that drains
// a bounded FIFO request queue shared with the GPU. The GPU pushes put /
// signal / flush requests by writing at the queue head; the CPU thread polls
// the tail, decodes requests, initiates DMA/RDMA transfers, and completes
// flushes once all preceding transfers have finished.
//
// The proxy thread is purely reactive, so it is simulated as a callback
// state machine on the engine's event queue rather than a full Proc: each
// request costs two events (notice/handle), callbacks bound once per
// Service, instead of a process park/dispatch round-trip per FIFO
// operation. Timing is identical to the
// thread formulation: an idle proxy notices a push after PollDelay, charges
// HandleCost per request, and a stalling request (flush) delays all
// subsequent requests until it completes.
//
// It stays a callback state machine even though a Proc switch is now a
// cheap coroutine switch: a Proc proxy would sit blocked on its empty
// queue whenever a run drains, so Run would report it as deadlocked, and
// every PortChannel would keep one suspended coroutine alive between runs.
// An idle callback machine holds nothing but its queue state.
package proxy

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/sim"
)

// Kind discriminates proxy requests.
type Kind int

const (
	// KindPut asks the proxy to initiate a data transfer.
	KindPut Kind = iota
	// KindSignal asks the proxy to atomically bump the peer's semaphore,
	// ordered after all previously requested transfers.
	KindSignal
	// KindFlush asks the proxy to report (via the flush counter) once all
	// previously requested transfers have fully completed.
	KindFlush
	// KindPutSignal is the fused put_with_signal request: one FIFO element
	// carrying both a transfer and the trailing semaphore update.
	KindPutSignal
	// KindPutSignalFlush additionally completes a flush once the transfer
	// finishes (put_with_signal_and_flush).
	KindPutSignalFlush
)

// String returns the request kind's name as the paper's primitives spell it.
func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindSignal:
		return "signal"
	case KindFlush:
		return "flush"
	case KindPutSignal:
		return "put_with_signal"
	case KindPutSignalFlush:
		return "put_with_signal_and_flush"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request is one element of the GPU->CPU FIFO.
type Request struct {
	Kind   Kind
	DstOff int64
	SrcOff int64
	Size   int64
}

// Handler processes one request in proxy context at virtual time now. It
// schedules its own side effects (transfers, semaphore bumps) on the engine
// and returns the time at which the proxy is free to pick up the next
// request: now for fire-and-forget requests, later for stalling requests
// (e.g. a flush blocks the proxy until the CQ drains, delaying subsequent
// requests, exactly as in the paper).
type Handler func(now sim.Time, req Request) (busyUntil sim.Time)

// Config carries the cost-model constants the service charges.
type Config struct {
	Capacity   int          // FIFO slots; GPU pushes block when full
	PushCost   sim.Duration // GPU-side cost to write an element + bump head
	PollDelay  sim.Duration // CPU delay to notice a request on an idle queue
	HandleCost sim.Duration // CPU cost to decode + initiate one request
}

// Service is one proxy state machine plus its FIFO.
type Service struct {
	name    string
	e       *sim.Engine
	cfg     Config
	handler Handler

	queue []Request
	head  int
	// claimed counts push tickets taken; popped counts requests the proxy
	// has taken off the queue. A push with ticket t may write once
	// t-popped < Capacity, as the GPU claims a head slot by atomic add and
	// spins until head-tail is below the FIFO size.
	claimed uint64
	popped  *sim.Semaphore

	// running is true while a step/exec event chain is in flight; an idle
	// service is re-armed by the next Push.
	running bool
	cur     Request

	flushes *uint64 // counts flush requests as they are made (CountFlushes), or nil

	// cached callbacks, built once at construction so the steady-state
	// request path allocates nothing.
	stepFn func()
	execFn func()

	handled uint64 // requests processed (stats)
}

// NewService returns the service handle. No process is spawned: the proxy
// thread exists only as events on the engine's queue.
func NewService(e *sim.Engine, name string, cfg Config, h Handler) *Service {
	if cfg.Capacity < 1 {
		cfg.Capacity = 128
	}
	s := &Service{
		name:    name,
		e:       e,
		cfg:     cfg,
		handler: h,
		popped:  sim.NewSemaphore(e, "proxy fifo "+name),
	}
	s.stepFn = s.step
	s.execFn = s.exec
	return s
}

// CountFlushes makes s count in *n the flushes requested through it, where
// the GPU thread bumps its flush counter: a put_with_signal_and_flush when
// it is called, a flush once its issue overhead is paid.
func (s *Service) CountFlushes(n *uint64) { s.flushes = n }

// Push queues thread block k's push of req after overhead, the calling
// primitive's issue cost. Once that has elapsed, the block takes the next
// ticket, waits until that ticket's slot is free, so concurrent pushers
// never hold more than Capacity requests between them, and pays PushCost;
// then it writes req. The call's record holds req, and its booking step
// (claim) and after-wake part (write) run as the block's Kernel fires.
func (s *Service) Push(k *machine.Kernel, overhead sim.Duration, req Request) {
	c := k.Call()
	c.Obj, c.D, c.Arg = s, overhead, uint64(req.Kind)
	c.DstOff, c.SrcOff, c.N = req.DstOff, req.SrcOff, req.Size
	k.Submit(c, pushStart, pushWrite)
}

// pushStart is Push's call-time part: it counts a
// put_with_signal_and_flush's flush, then pays the issue overhead.
func pushStart(k *machine.Kernel, c *machine.Call) {
	if s := c.Obj.(*Service); Kind(c.Arg) == KindPutSignalFlush && s.flushes != nil {
		*s.flushes++
	}
	k.Then(k.P.Now()+c.D, pushClaim)
}

// pushClaim is Push's booking step: it counts a flush request's flush,
// then claims the push.
func pushClaim(k *machine.Kernel, c *machine.Call) {
	s := c.Obj.(*Service)
	if Kind(c.Arg) == KindFlush && s.flushes != nil {
		*s.flushes++
	}
	s.claim(k)
}

// pushWrite is Push's after-wake part: it writes the request the call holds.
func pushWrite(_ *machine.Kernel, c *machine.Call) {
	c.Obj.(*Service).write(Request{Kind: Kind(c.Arg), DstOff: c.DstOff, SrcOff: c.SrcOff, Size: c.N})
}

// claim takes the next ticket for thread block k's push and ends k's
// current call PushCost after that ticket's slot is free.
func (s *Service) claim(k *machine.Kernel) {
	t := s.claimed
	s.claimed++
	var slot uint64 // popped count at which ticket t's slot is free
	if c := uint64(s.cfg.Capacity); t >= c {
		slot = t - c + 1
	}
	k.WakeAfter(s.popped, slot, s.cfg.PushCost)
}

// write puts a claimed request at the queue head, where the thread block
// that claimed it would have woken from its claim.
func (s *Service) write(req Request) {
	s.queue = append(s.queue, req)
	if !s.running {
		// The queue was idle: charge the polling-granularity delay before
		// the CPU notices the new head value over PCIe.
		s.running = true
		s.e.After(s.cfg.PollDelay, s.stepFn)
	}
}

// Pending returns the number of queued requests (diagnostics).
func (s *Service) Pending() int { return len(s.queue) - s.head }

// Handled returns the number of requests processed so far.
func (s *Service) Handled() uint64 { return s.handled }

// step picks up the next request, or parks the service when the queue is
// empty.
func (s *Service) step() {
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
		s.running = false
		return
	}
	s.cur = s.queue[s.head]
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.popped.Add(1)
	s.e.After(s.cfg.HandleCost, s.execFn)
}

// exec runs the handler for the current request and chains to the next one
// once the proxy is free again.
func (s *Service) exec() {
	busy := s.handler(s.e.Now(), s.cur)
	s.handled++
	if busy > s.e.Now() {
		s.e.At(busy, s.stepFn)
		return
	}
	s.step()
}
