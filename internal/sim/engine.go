// Package sim implements a deterministic discrete-event simulator used as the
// execution substrate for the simulated GPU cluster.
//
// The engine runs a set of cooperating processes (Proc) over a virtual clock.
// Exactly one process runs at a time; processes yield to the engine whenever
// they block (Sleep, a semaphore wait), and the engine advances the clock
// to the next scheduled event. Event ordering is total and deterministic:
// events are ordered by (time, sequence number), so a simulation always
// replays identically.
//
// Concurrency discipline: each Proc runs on a coroutine (iter.Pull) that
// the engine resumes directly and that hands control back when the process
// blocks or finishes. Control moves by coroutine switch on the goroutine
// that called Run, never through the Go scheduler, so exactly one process or
// callback runs at a time and all simulation state may be accessed without
// locks. All engine methods must be called either from the currently running
// Proc or from an event callback.
//
// Hot-path design: an event is an Action, the one thing the engine
// schedules. Every engine-internal event is a pointer that is its own
// Action — a process wake (*Proc), a semaphore recheck or delayed signal (a
// pointer view of the Semaphore), a Feed cursor — so scheduling one stores
// an interface value and allocates nothing; At wraps its closure the same
// way. Pending events wait in two structures: a FIFO ring for events
// scheduled at the current timestamp (the dominant case: Sleep(0),
// semaphore wakes, same-instant completions) and a monomorphic 4-ary
// min-heap for future events.
//
// Future events that tie on a timestamp — lockstep thread blocks and ranks
// waking on the same nanosecond — share one heap entry. A chain is a linked
// list of payload slots at one time, in sequence order; the heap holds one
// entry per chain, keyed by its head's (time, seq). A small table of
// recently opened chains, {time, tail}, lets a schedule at a later time
// append to an open chain without touching the heap. Its entries never go
// stale: it is consulted only for times after now, and a chain starts to
// drain only once now reaches its time, so a matching entry's tail is
// always live (and the zero table matches nothing). Popping a chain's head
// re-keys the top entry to its successor's seq and sifts it down. Order
// therefore does not depend on ties being gathered into one chain: the heap
// merges sorted chains exactly as it merges single events, so two chains at
// one time (the first evicted from the table before the second opened) and
// fed entries at a chain's time interleave by seq.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Common durations.
const (
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// Action is an event: the engine calls Fire at its time. Do schedules one,
// and every other kind of event is one too (At's closure, a process wake, a
// semaphore signal, a fed entry). A pointer-shaped Action — a pointer to a
// pooled record such as a transfer landing, or a func value — converts to
// the interface without allocating, so such an event allocates nothing.
type Action interface{ Fire() }

// funcAction is At's closure as an Action.
type funcAction func()

func (f funcAction) Fire() { f() }

// heapEnt is a scalar-only heap element. Keeping the pointerful payload out
// of the heap array (in a stable slot of Engine.slots) means sift-up and
// sift-down move 16-byte pointer-free values — no GC write barriers on the
// O(log n) moves of every push/pop, and a 4-ary node spans one cache line.
// seq is a wrapping tiebreak counter compared circularly: it only ever
// discriminates events at the same timestamp, whose sequence distance is
// far below 2^31. An entry stands for a whole chain of events at t: slot
// and seq are the chain head's, and they move to the successor when the
// head runs.
type heapEnt struct {
	t    Time
	seq  uint32
	slot int32
}

// payload is the pointer-carrying part of a heap event, written once at
// schedule time and read once at pop time. next links the slot to the next
// event of its chain (-1 at the tail; free slots are threaded through it
// too), and seq is the slot's own sequence number, which becomes the heap
// key when the slot becomes its chain's head. A slot is 24 bytes.
type payload struct {
	a    Action
	next int32
	seq  uint32
}

// chainTable is the number of open chains schedule looks up. Four catch
// nearly every tie of a collective sweep; one catches under half as many.
const chainTable = 4

// chain locates an open chain by its time and its tail slot.
type chain struct {
	t    Time
	tail int32
}

func entLess(a, b *heapEnt) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return int32(a.seq-b.seq) < 0
}

// Engine is a deterministic discrete-event simulation kernel.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint32 // wrapping heap-entry tiebreak (see heapEnt)

	// ring holds events scheduled at the current timestamp, in FIFO order
	// (ring[ringHead:] are pending). heap is a 4-ary min-heap of future
	// events, one scalar entry per chain; their payloads live in slots
	// (free slots threaded from freeHead). Invariant: every heap event
	// satisfies t >= now, and any heap event with t == now was scheduled
	// (a fed entry: had its sequence number reserved) before the clock
	// reached now, so it orders (by seq) before every ring event.
	ring     []Action
	ringHead int
	heap     []heapEnt
	slots    []payload
	freeHead int32 // head of the free-slot list threaded through slots[i].next

	// chains lists recently opened chains, replaced round-robin at
	// chainNext; only entries with t > now are live (see the package doc).
	chains    [chainTable]chain
	chainNext uint

	live    []*Proc // started, unfinished processes; Proc.live is the index
	running *Proc   // the process whose function is running, nil in event context

	// stats
	eventsRun uint64
	wakes     uint64
	runs      uint64
}

// NewEngine returns a fresh engine with the clock at zero. Event storage is
// pre-sized so steady-state scheduling never reallocates.
func NewEngine() *Engine {
	return &Engine{
		ring:     make([]Action, 0, 64),
		heap:     make([]heapEnt, 0, 64),
		slots:    make([]payload, 0, 64),
		freeHead: -1,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Running returns the process whose function is running, or nil when the
// caller runs in event context (an event, an Action or a semaphore
// recheck) or outside Run.
func (e *Engine) Running() *Proc { return e.running }

// EventsRun returns the number of events executed so far (for tests/metrics).
func (e *Engine) EventsRun() uint64 { return e.eventsRun }

// Wakes returns the number of times a process has been resumed so far: its
// start and every wake from a sleep, a semaphore wait or a park. Each costs
// a pair of coroutine switches, so it shows what an Action that does a
// process's blocking work for it saves (for tests/metrics).
func (e *Engine) Wakes() uint64 { return e.wakes }

// totals are the events and process wakes of every Run in the process,
// each Run adding its own once it returns, so counting costs the event
// loop nothing.
var totals struct{ events, wakes atomic.Uint64 }

// Totals returns the events run and the process wakes of every Run that has
// returned in this process, across all engines. A caller that runs nothing
// else concurrently reads a simulation's counts as the difference of two
// readings.
func Totals() (events, wakes uint64) { return totals.events.Load(), totals.wakes.Load() }

// Runs returns the number of times Run has drained the event queue. State
// that belongs to one run (such as the arrival counts of LL packet flags)
// compares it to tell a new run from the one it was created in.
func (e *Engine) Runs() uint64 { return e.runs }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event still runs after all currently
// pending work at that timestamp, preserving determinism).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, funcAction(fn)) }

// Do schedules a.Fire() at absolute virtual time t, ordered exactly as
// At(t, a.Fire) would be, without the closure.
func (e *Engine) Do(t Time, a Action) { e.schedule(t, a) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// schedule routes a to the current-instant ring (t <= now) or, as a future
// event, to the tail of an open chain at t or else to a new heap entry.
// Ring entries need no sequence number: their order is positional. A chain
// stays sorted because the appended event takes the largest seq so far.
func (e *Engine) schedule(t Time, a Action) {
	if t <= e.now {
		e.ring = append(e.ring, a)
		return
	}
	e.seq++
	slot := e.newSlot()
	e.slots[slot] = payload{a: a, next: -1, seq: e.seq}
	for i := range e.chains {
		if c := &e.chains[i]; c.t == t {
			e.slots[c.tail].next = slot
			c.tail = slot
			return
		}
	}
	e.chains[e.chainNext] = chain{t: t, tail: slot}
	e.chainNext = (e.chainNext + 1) % chainTable
	e.heapPush(heapEnt{t: t, seq: e.seq, slot: slot})
}

// newSlot returns a free payload slot, reusing a freed one if any.
func (e *Engine) newSlot() int32 {
	slot := e.freeHead
	if slot >= 0 {
		e.freeHead = e.slots[slot].next
		return slot
	}
	e.slots = append(e.slots, payload{})
	return int32(len(e.slots) - 1)
}

// feed is a Feed cursor and the Action of every one of its entries. Fed
// entries fire in index order — those at or before now sit in the ring in
// index order and all run before the clock moves, and the heap only ever
// holds the next reserved entry, pushed when its predecessor fires — so the
// cursor, not the event, keeps the index of the entry that fires next.
// Entries first.. of ts hold the reserved sequence numbers seq0+1, seq0+2,
// ... in index order.
type feed struct {
	e     *Engine
	ts    []Time
	fire  func(i int)
	next  int    // index of the entry that fires next
	first int    // index of the first entry that reserved a sequence number
	seq0  uint32 // e.seq just before the reservation
}

// Fire runs the next fed entry, first pushing its successor if the entry
// came from the heap.
func (f *feed) Fire() {
	i := f.next
	f.next++
	if i >= f.first && f.next < len(f.ts) {
		f.e.pushFed(f, f.next)
	}
	f.fire(i)
}

// Feed schedules fire(i) at ts[i] for every index i, ordered exactly as
// len(ts) calls At(ts[i], func() { fire(i) }) made at this point would be.
// ts must be non-decreasing; Feed panics otherwise. Entries at or before
// now go into the current-instant ring at once, in index order. The later
// entries reserve one contiguous block of sequence numbers, and only the
// next of them sits in the heap, under its reserved (time, sequence) key;
// when it fires it pushes its successor. So a Feed of any length costs one
// allocation and one heap entry, and a fed entry allocates nothing. The
// caller must not modify ts until the last entry has fired.
func (e *Engine) Feed(ts []Time, fire func(i int)) {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			panic(fmt.Sprintf("sim: Feed times must be non-decreasing: ts[%d] = %d after ts[%d] = %d", i, ts[i], i-1, ts[i-1]))
		}
	}
	f := &feed{e: e, ts: ts, fire: fire}
	i := 0
	for ; i < len(ts) && ts[i] <= e.now; i++ {
		e.ring = append(e.ring, f)
	}
	f.first, f.seq0 = i, e.seq
	if i < len(ts) {
		e.seq += uint32(len(ts) - i)
		e.pushFed(f, i)
	}
}

// pushFed enters f's entry i in the heap under its reserved key. It never
// joins a chain: its reserved seq may be below an open chain's tail.
func (e *Engine) pushFed(f *feed, i int) {
	slot := e.newSlot()
	seq := f.seq0 + uint32(i-f.first) + 1
	e.slots[slot] = payload{a: f, next: -1, seq: seq}
	e.heapPush(heapEnt{t: f.ts[i], seq: seq, slot: slot})
}

// heapPush inserts ent into the 4-ary min-heap (hole-based sift-up: parents
// slide down into the hole, ent is written once at its final position).
func (e *Engine) heapPush(ent heapEnt) {
	h := append(e.heap, heapEnt{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(&ent, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
	e.heap = h
}

// siftDown moves the top entry, whose key has grown, down to its place: a
// re-keyed chain (usually one level down) or the last entry after a pop.
func (e *Engine) siftDown() {
	h := e.heap
	n := len(h)
	ent := h[0]
	i := 0
	for {
		min := 4*i + 1
		if min >= n {
			break
		}
		end := min + 4
		if end > n {
			end = n
		}
		for c := min + 1; c < end; c++ {
			if entLess(&h[c], &h[min]) {
				min = c
			}
		}
		if !entLess(&h[min], &ent) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ent
}

// heapPop removes the minimum heap entry; the caller owns its payload slot.
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown()
	}
}

// runNext pops and executes the next event in (t, seq) order, advancing the
// clock as needed. Heap events at the current timestamp precede ring events
// (they carry strictly smaller sequence numbers, see the ring/heap
// invariant). Reports false when the queue is empty.
func (e *Engine) runNext() bool {
	if len(e.heap) > 0 && e.heap[0].t <= e.now {
		e.runHeapTop()
		return true
	}
	if e.ringHead < len(e.ring) {
		i := e.ringHead
		e.ringHead++
		a := e.ring[i]
		e.ring[i] = nil // release reference
		// Recycle consumed capacity before Fire (which may append): reset
		// when drained, or slide pending entries down once the consumed
		// prefix dominates, so a never-empty ring stays bounded.
		if e.ringHead == len(e.ring) {
			e.ring = e.ring[:0]
			e.ringHead = 0
		} else if e.ringHead >= 32 && e.ringHead*2 >= len(e.ring) {
			m := copy(e.ring, e.ring[e.ringHead:])
			tail := e.ring[m:]
			for j := range tail {
				tail[j] = nil
			}
			e.ring = e.ring[:m]
			e.ringHead = 0
		}
		e.eventsRun++
		a.Fire()
		return true
	}
	if len(e.heap) > 0 {
		e.now = e.heap[0].t
		e.runHeapTop()
		return true
	}
	return false
}

// runHeapTop executes the head of the minimum heap entry's chain: the entry
// moves on to the successor, or leaves the heap with the chain's last
// event. The payload slot is freed before the callback runs so the
// callback's own pushes can reuse it.
func (e *Engine) runHeapTop() {
	top := &e.heap[0]
	slot := top.slot
	pl := &e.slots[slot]
	if next := pl.next; next >= 0 {
		top.slot, top.seq = next, e.slots[next].seq
		e.siftDown()
	} else {
		e.heapPop()
	}
	a := pl.a
	pl.a = nil // release reference; thread slot onto the free list
	pl.next = e.freeHead
	e.freeHead = slot
	e.eventsRun++
	a.Fire()
}

// NewProc makes a process running fn without starting it (see Proc.Start).
// A kernel's thread blocks are made once this way and started for every
// launch.
func (e *Engine) NewProc(name string, fn func(p *Proc)) *Proc {
	return &Proc{e: e, Name: name, fn: fn}
}

// Spawn makes a process running fn and starts it at the current virtual
// time. It may be called before Run or from inside a running process or
// event callback. The process gets its coroutine from the worker pool at
// its first dispatch, so Spawn itself allocates only the Proc.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := e.NewProc(name, fn)
	p.Start()
	return p
}

// dropLive removes p, which has finished, from the live list.
func (e *Engine) dropLive(p *Proc) {
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.live], moved.live = moved, p.live
	e.live[last] = nil
	e.live = e.live[:last]
}

// dispatch resumes p on its coroutine and returns when p parks again or
// finishes. It must run in the engine's event loop context. A panic in p
// propagates out of dispatch (and so out of Run); its worker is dead and
// is not pooled.
func (e *Engine) dispatch(p *Proc) {
	if p.state == procIdle {
		return
	}
	if p.w == nil {
		p.w = getWorker()
		p.w.p = p
	}
	p.state = procRunning
	e.wakes++
	prev := e.running
	e.running = p
	p.w.next()
	e.running = prev
	if p.state == procIdle {
		putWorker(p.w)
		p.w = nil
	}
}

// DeadlockError reports processes that were still blocked when the event
// queue drained.
type DeadlockError struct {
	Now     Time
	Blocked []string // "name (reason)" for each blocked process
}

// Error formats the deadlock diagnostic: the drain time and every blocked
// process with its wait reason.
func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%dns: %d process(es) blocked: %s",
		d.Now, len(d.Blocked), strings.Join(d.Blocked, "; "))
}

// Run executes events until the queue is empty. If live processes remain
// blocked afterwards, Run returns a *DeadlockError naming them. A process
// still blocked at drain keeps its suspended coroutine; a later Run can
// still wake it. A panic inside a process propagates out of Run on the
// caller's goroutine, and runtime.Goexit inside a process (t.Fatal) ends
// the caller's goroutine.
func (e *Engine) Run() error {
	events, wakes := e.eventsRun, e.wakes
	e.running = nil // a process panic may have left it set
	for e.runNext() {
	}
	e.runs++
	totals.events.Add(e.eventsRun - events)
	totals.wakes.Add(e.wakes - wakes)
	var blocked []string
	for _, p := range e.live {
		blocked = append(blocked, fmt.Sprintf("%s (%s)", p.Name, p.reason()))
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Now: e.now, Blocked: blocked}
	}
	return nil
}
