package sim

import (
	"iter"
	"sync"
)

type procState int32

const (
	procIdle    procState = iota // not started, or finished: Start may start it
	procStarted                  // started, not yet dispatched
	procRunning
	procParked
)

// Proc is a simulated process: a coroutine that the engine resumes when the
// process is dispatched and that hands control back when the process blocks,
// so its blocking operations consume virtual rather than real time. Thread
// blocks, CPU proxy threads, NIC completion handlers and workload drivers
// are all Procs. The coroutine comes from a process-wide worker pool at the
// first dispatch and goes back to it when fn returns. A finished process
// keeps its name and fn, so Start can run it again without a new Proc.
type Proc struct {
	e          *Engine
	Name       string
	fn         func(p *Proc)
	w          *worker // coroutine running fn; nil before the first dispatch and after fn returns
	state      procState
	live       int32      // index in the engine's live list while the process is live
	waitReason string     // why p is parked, unless it waits on waitSem
	waitSem    *Semaphore // the semaphore p (or an Action for p) waits on while parked
	act        Action     // waits on a semaphore for p while p is parked (see Semaphore.Await)
}

// worker is a pooled coroutine that runs process bodies one after another.
// next resumes it from the engine side; yield (valid inside the coroutine
// only) hands control back. An idle worker is suspended between bodies with
// p == nil, so it holds no engine reference.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc
}

// maxIdleWorkers caps the idle pool, so the coroutine stacks kept after a
// wide simulation stay bounded; workers returned beyond it are stopped.
const maxIdleWorkers = 1024

// workers is the idle pool shared by every engine in the process. It is not
// a sync.Pool: a worker dropped at garbage collection would never be
// stopped, and its suspended coroutine would leak.
var workers struct {
	sync.Mutex
	idle []*worker
}

// getWorker takes an idle worker from the pool, or starts a new one.
func getWorker() *worker {
	workers.Lock()
	if n := len(workers.idle); n > 0 {
		w := workers.idle[n-1]
		workers.idle[n-1] = nil
		workers.idle = workers.idle[:n-1]
		workers.Unlock()
		return w
	}
	workers.Unlock()
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns a worker whose process body has finished to the pool.
func putWorker(w *worker) {
	workers.Lock()
	if len(workers.idle) < maxIdleWorkers {
		workers.idle = append(workers.idle, w)
		workers.Unlock()
		return
	}
	workers.Unlock()
	w.stop()
}

// loop is the coroutine body: run the assigned process to completion, mark
// it done, hand control back, and wait for the next assignment. It returns
// only when the worker is stopped; a panic or Goexit in fn ends it too, and
// iter.Pull propagates either to the goroutine that called next.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		p.fn(p)
		p.state = procIdle
		p.e.dropLive(p)
		w.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Start schedules p to run its function from the beginning at the current
// virtual time, ordered like an event scheduled there with Do. A process
// made by NewProc starts this way, and a finished one starts again under
// its name with its function, as a fresh Spawn would, with no new Proc.
// Starting a live process (started and not finished, such as one still
// blocked after a deadlocked Run) panics with its name.
func (p *Proc) Start() {
	if p.state != procIdle {
		panic("sim: Start of live process " + p.Name)
	}
	e := p.e
	p.state = procStarted
	p.live = int32(len(e.live))
	e.live = append(e.live, p)
	e.Do(e.now, p)
}

// Live reports whether p has been started and has not finished yet.
func (p *Proc) Live() bool { return p.state != procIdle }

// reason is p's wait reason in a DeadlockError.
func (p *Proc) reason() string {
	if s := p.waitSem; s != nil {
		return "semaphore " + s.Name()
	}
	return p.waitReason
}

// Park blocks p, the running process, until it is resumed: by Fire from
// event context, or by the wake of the semaphore it waits on. Sleep and
// WaitGE park this way, and an Action that works on p's behalf uses Park
// to hand p's blocking to itself: before parking, the Action has scheduled
// itself with Engine.Do or queued on a semaphore with Await, and it
// resumes p when its work is done, so p costs no coroutine switch per
// step. reason is p's wait reason in a DeadlockError, unless an Await has
// already recorded its semaphore; each later Await for p records its own,
// and resuming clears it.
func (p *Proc) Park(reason string) {
	p.state = procParked
	if p.waitReason == "" {
		p.waitReason = reason
	}
	p.w.yield(struct{}{})
	p.waitReason, p.waitSem = "", nil
}

// Fire resumes p inline where it blocked, and returns when p blocks again
// or finishes: a process is the Action that wakes it, so its sleeps are
// Action events. It must run in event context (an event, an Action or a
// semaphore recheck), never from a running process. Fire on a process that
// is not live does nothing.
func (p *Proc) Fire() { p.e.dispatch(p) }

// wake ends p's semaphore wait: it fires the Action that waited for p
// (Await), or resumes p if p waited itself.
func (p *Proc) wake() {
	if a := p.act; a != nil {
		p.act = nil
		a.Fire()
		return
	}
	p.e.dispatch(p)
}

// Sleep blocks the process for d nanoseconds of virtual time. Negative or
// zero durations yield to other work scheduled at the current instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.e.now + d)
}

// SleepUntil blocks the process until virtual time t (or now, if t is in the
// past). A same-instant sleep lets every other event already scheduled at
// the current time run first.
func (p *Proc) SleepUntil(t Time) {
	p.e.Do(t, p)
	p.Park("sleep")
}
