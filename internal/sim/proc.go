package sim

import (
	"iter"
	"sync"
)

type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process: a coroutine that the engine resumes when the
// process is dispatched and that hands control back when the process blocks,
// so its blocking operations consume virtual rather than real time. Thread
// blocks, CPU proxy threads, NIC completion handlers and workload drivers
// are all Procs. The coroutine comes from a process-wide worker pool at the
// first dispatch and goes back to it when fn returns.
type Proc struct {
	e          *Engine
	Name       string
	ID         int
	fn         func(p *Proc)
	w          *worker // coroutine running fn; nil before the first dispatch and after fn returns
	state      procState
	waitReason string
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
		p.fn = nil
		p.state = procDone
		delete(p.e.live, p)
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

// park yields control to the engine until the process is dispatched again.
func (p *Proc) park(reason string) {
	p.state = procParked
	p.waitReason = reason
	p.w.yield(struct{}{})
	p.waitReason = ""
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
	p.e.schedule(t, event{kind: evProc, obj: p})
	p.park("sleep")
}
