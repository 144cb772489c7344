package sim

import "strconv"

// Semaphore is a monotonically increasing counter with blocking waits, the
// simulated analogue of the GPU-memory semaphores MSCCL++ channels
// synchronize on. Signal-side code atomically increments the value; wait-side
// code busy-waits (in virtual time) until the value reaches an expected
// threshold. Other than sleeping, it is the one thing a process blocks on,
// directly (WaitGE) or through an Action that waits for it (Await).
type Semaphore struct {
	name    string
	e       *Engine
	val     uint64
	waiters []semWaiter // FIFO
	pending bool        // a recheck event is scheduled

	// A numbered semaphore is number num of the family name: it is named
	// name followed by num, formatted only when the name is read.
	num      uint64
	numbered bool
}

// semWaiter is one blocked process queued until the value reaches target.
// When an Action waits on the process's behalf (Await), the wake fires the
// Action instead; a process pointer keeps the waiter at 16 bytes.
type semWaiter struct {
	p      *Proc
	target uint64
}

// NewSemaphore returns a semaphore with value zero.
func NewSemaphore(e *Engine, name string) *Semaphore {
	return &Semaphore{name: name, e: e}
}

// NewNumberedSemaphore returns a semaphore with value zero that is number n
// of the family prefix: it is named prefix followed by n in decimal. Reset
// renumbers it, so one semaphore serves a family whose members are used one
// at a time (the per-run flags of an LL channel) without allocating.
func NewNumberedSemaphore(e *Engine, prefix string, n uint64) *Semaphore {
	return &Semaphore{name: prefix, e: e, num: n, numbered: true}
}

// Name returns the semaphore's name, which a deadlock report gives as the
// wait reason of each process blocked on it.
func (s *Semaphore) Name() string {
	if s.numbered {
		return s.name + strconv.FormatUint(s.num, 10)
	}
	return s.name
}

// Reset returns a numbered semaphore to value zero as number n of its
// family, keeping its waiter capacity. It panics if anything still waits on
// s, or if s is not numbered.
func (s *Semaphore) Reset(n uint64) {
	if !s.numbered || len(s.waiters) > 0 {
		panic("sim: Reset of semaphore " + s.Name() + " with waiters or without a number")
	}
	s.val, s.num = 0, n
}

// Waiting returns the number of waiters queued on s.
func (s *Semaphore) Waiting() int { return len(s.waiters) }

// Value returns the current counter value.
func (s *Semaphore) Value() uint64 { return s.val }

// Add atomically increments the counter by delta and, if any process
// waits, schedules one recheck of the waiters at the current virtual time;
// satisfied waiters resume in FIFO order. Safe to call from processes or
// event callbacks (e.g. NIC completion).
func (s *Semaphore) Add(delta uint64) {
	s.val += delta
	if s.pending || len(s.waiters) == 0 {
		return
	}
	s.pending = true
	s.e.schedule(s.e.now, (*semCheck)(s))
}

// SignalAt schedules Add(1) at absolute virtual time t — the
// allocation-free form of At(t, func() { s.Add(1) }) used by
// signal-delivery hot paths (channel signals, NIC completions).
func (s *Semaphore) SignalAt(t Time) { s.e.schedule(t, (*semSignal)(s)) }

// semCheck and semSignal are views of a Semaphore as the Actions of its
// recheck and of a delayed signal: scheduling one stores the semaphore's
// own pointer, with no record and no allocation.
type (
	semCheck  Semaphore
	semSignal Semaphore
)

func (s *semCheck) Fire()  { (*Semaphore)(s).recheck() }
func (s *semSignal) Fire() { (*Semaphore)(s).Add(1) }

// WaitGE blocks p until the counter value is >= target.
func (s *Semaphore) WaitGE(p *Proc, target uint64) {
	if s.val >= target {
		return
	}
	s.waiters = append(s.waiters, semWaiter{p: p, target: target})
	p.waitSem = s
	p.Park("")
}

// Await queues a to fire once the counter value is >= target and reports
// true, or reports false, queuing nothing, when it already is. a waits on
// behalf of process p, which is parked or parks next (Proc.Park): the
// queued waiter is p, whose wake fires a instead of resuming p, and the
// semaphore becomes p's wait reason, so a deadlock report names it. a
// fires inline in the recheck that satisfies it, exactly where p would
// have been dispatched had it waited in WaitGE.
func (s *Semaphore) Await(a Action, p *Proc, target uint64) bool {
	if s.val >= target {
		return false
	}
	s.waiters = append(s.waiters, semWaiter{p: p, target: target})
	p.act, p.waitSem = a, s
	return true
}

// recheck scans the waiter list in FIFO order, waking every waiter whose
// threshold is reached and compacting survivors in place (one O(n) pass
// per sweep instead of an O(n) splice per wake). A woken waiter can add to
// the semaphore and satisfy further waiters — including waiters appended
// while it runs — so it iterates until a full pass wakes nobody.
func (s *Semaphore) recheck() {
	s.pending = false
	for {
		woke := false
		out := 0
		for in := 0; in < len(s.waiters); in++ {
			w := s.waiters[in]
			if s.val >= w.target {
				s.waiters[in] = semWaiter{}
				w.p.wake()
				woke = true
			} else if out != in {
				s.waiters[out] = w
				s.waiters[in] = semWaiter{}
				out++
			} else {
				out++
			}
		}
		s.waiters = s.waiters[:out]
		if !woke {
			break
		}
	}
}

// Resource models a serially reusable hardware unit (a link port, a DMA
// engine, a NIC send queue, a switch reduction pipeline). Work items are
// granted exclusive occupancy in FIFO order: a reservation of length dur
// begins when the resource frees up and pushes the free time forward.
//
// This is the standard "store-and-forward pipe" contention model: concurrent
// users serialize, which for fixed total bytes is time-equivalent to fair
// bandwidth sharing on a single link.
//
// Every resource keeps a full set of introspection counters — reservations,
// busy time, cumulative queue delay, idle gaps, max queue depth — updated
// on every Reserve/ReserveJoint with no heap allocation in steady state
// (the pending-reservation window reuses its backing array once warm).
// Counters are observe-only: they never influence the granted times, so a
// simulation with and without readers of these counters is bit-identical.
type Resource struct {
	Name   string
	freeAt Time

	// stats (observe-only; see Stats)
	busy     Duration
	reserves uint64
	qdelay   Duration
	idle     Duration
	maxDepth int
	// pend[head:] holds the end times of reservations still pending at the
	// last Reserve instant — the FIFO window queue depth is measured over.
	// Ends are non-decreasing (serial FIFO occupancy), so pruning from the
	// front is exact; the slice is compacted in place whenever it drains,
	// keeping steady-state Reserve allocation-free.
	pend []Time
	head int
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Reserve books the resource for dur nanoseconds starting no earlier than
// now, returning the start and end of the granted occupancy.
func (r *Resource) Reserve(now Time, dur Duration) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.book(now, start, dur)
	return start, start + dur
}

// ReserveJoint books all resources simultaneously for dur ns, starting when
// the last of them frees up (crossbar-style occupancy: a flow holds every
// port on its path for the same interval). Counter attribution per member:
// queue delay is the wait that member alone would have imposed on a request
// at now, and idle gap is the span that member actually sat free before the
// joint start — so a port that was ready but held up by a busier peer
// accrues idle time, not queue delay.
func ReserveJoint(now Time, dur Duration, rs ...*Resource) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = now
	for _, r := range rs {
		if r.freeAt > start {
			start = r.freeAt
		}
	}
	for _, r := range rs {
		r.book(now, start, dur)
	}
	return start, start + dur
}

// book commits an occupancy [start, start+dur) requested at now and updates
// the counters. start must be >= max(now, freeAt).
func (r *Resource) book(now, start Time, dur Duration) {
	if w := r.freeAt - now; w > 0 {
		r.qdelay += w
	}
	if r.reserves > 0 && start > r.freeAt {
		r.idle += start - r.freeAt
	}
	// Queue depth at the request instant: reservations whose occupancy has
	// not ended by now, plus this one.
	for r.head < len(r.pend) && r.pend[r.head] <= now {
		r.head++
	}
	if r.head == len(r.pend) {
		r.pend = r.pend[:0]
		r.head = 0
	}
	end := start + dur
	r.pend = append(r.pend, end)
	if d := len(r.pend) - r.head; d > r.maxDepth {
		r.maxDepth = d
	}
	r.freeAt = end
	r.busy += dur
	r.reserves++
}

// FreeAt returns the time at which the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime returns the cumulative reserved time (for utilization metrics).
func (r *Resource) BusyTime() Duration { return r.busy }

// Reservations returns the number of reservations made.
func (r *Resource) Reservations() uint64 { return r.reserves }

// QueueDelay returns the cumulative time reservations spent waiting for
// this resource: the sum over reservations of how long the resource was
// still busy past each request instant. A joint reservation charges each
// member only the wait it alone would have imposed.
func (r *Resource) QueueDelay() Duration { return r.qdelay }

// MaxQueueDepth returns the largest number of reservations simultaneously
// pending at any reservation instant (including the new one); 1 means the
// resource was never contended, 0 that it was never reserved.
func (r *Resource) MaxQueueDepth() int { return r.maxDepth }

// Stats returns a snapshot of the resource's counters.
func (r *Resource) Stats() ResourceStats {
	return ResourceStats{
		Name:          r.Name,
		Reservations:  r.reserves,
		BusyNs:        r.busy,
		QueueDelayNs:  r.qdelay,
		IdleNs:        r.idle,
		MaxQueueDepth: r.maxDepth,
	}
}

// Reset returns the resource to idle at time zero, clearing every counter.
// A reset resource is indistinguishable from a fresh one (the regression
// test in resource_test.go holds this to the full observable surface); the
// pending-window capacity is retained so benchmark repetitions stay
// allocation-free.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = 0
	r.reserves = 0
	r.qdelay = 0
	r.idle = 0
	r.maxDepth = 0
	r.pend = r.pend[:0]
	r.head = 0
}

// ResourceStats is a point-in-time snapshot of one Resource's introspection
// counters, in a JSON-stable form suitable for per-scenario counter reports.
type ResourceStats struct {
	// Name is the owning resource's registered name (e.g. "nicTx[3]").
	Name string `json:"name"`
	// Reservations counts occupancies granted.
	Reservations uint64 `json:"reservations"`
	// BusyNs is the cumulative reserved time.
	BusyNs Duration `json:"busy_ns"`
	// QueueDelayNs is the cumulative wait charged to this resource.
	QueueDelayNs Duration `json:"queue_delay_ns"`
	// IdleNs is the cumulative gap time between occupancies.
	IdleNs Duration `json:"idle_ns"`
	// MaxQueueDepth is the deepest simultaneous pending count observed.
	MaxQueueDepth int `json:"max_queue_depth"`
}

// CounterGroup is a named collection of resource counter snapshots — one
// row of a layer's counter registration (all DMA engines, all NIC send
// queues, one replica's KV-swap lanes, ...).
type CounterGroup struct {
	// Name identifies the group (e.g. "dma", "nicTx", "kvswap").
	Name string `json:"name"`
	// Stats holds one snapshot per member resource, in registration order.
	Stats []ResourceStats `json:"stats"`
}

// Group snapshots rs into a named CounterGroup, skipping nil members (mesh
// fabrics leave self-pair slots nil).
func Group(name string, rs ...*Resource) CounterGroup {
	g := CounterGroup{Name: name}
	for _, r := range rs {
		if r != nil {
			g.Stats = append(g.Stats, r.Stats())
		}
	}
	return g
}
