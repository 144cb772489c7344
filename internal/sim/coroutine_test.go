package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// A panic inside a process surfaces from Run on the caller's goroutine,
// where it can be recovered, and the dead worker is not pooled.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	e.Spawn("other", func(p *Proc) { p.Sleep(10) })
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if p.w == nil {
		t.Fatal("panicked process lost its worker")
	}
	workers.Lock()
	for _, w := range workers.idle {
		if w == p.w {
			t.Error("dead worker returned to the pool")
		}
	}
	workers.Unlock()

	// The pool still serves healthy workers to the next engine.
	e2 := NewEngine()
	ran := 0
	for i := 0; i < 4; i++ {
		e2.Spawn("after", func(p *Proc) {
			p.Sleep(1)
			ran++
		})
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Fatalf("%d of 4 processes ran after the panic", ran)
	}
}

// runtime.Goexit inside a process (what t.Fatal does) ends the goroutine
// that called Run instead of leaving the engine waiting forever.
func TestProcGoexitEndsCaller(t *testing.T) {
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e := NewEngine()
		e.Spawn("fatal", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		_ = e.Run()
		ok = true
	}()
	select {
	case ok := <-returned:
		if ok {
			t.Fatal("Run returned normally after Goexit in a process")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine hung after Goexit in a process")
	}
}

// workload drives a mixed sleep/semaphore workload and returns the
// engine's final state for determinism comparison. It takes no testing.T,
// so it can run off the test goroutine.
func workload() (Time, uint64, error) {
	e := NewEngine()
	sem := NewSemaphore(e, "sync")
	done := NewSemaphore(e, "done")
	for i := 0; i < 6; i++ {
		id := i
		e.Spawn("worker", func(p *Proc) {
			for step := 0; step < 20; step++ {
				p.Sleep(Duration(7*id + step%5))
				if step%3 == 0 {
					sem.Add(1)
				} else {
					sem.WaitGE(p, uint64(id*3))
				}
				p.Sleep(0)
			}
			done.Add(1)
		})
	}
	e.Spawn("joiner", func(p *Proc) {
		done.WaitGE(p, 6)
		sem.Add(100)
	})
	err := e.Run()
	return e.Now(), e.EventsRun(), err
}

// Engines on separate goroutines share the worker pool and stay
// independent: each replays the serial run exactly (run under -race).
func TestConcurrentEnginesSharePool(t *testing.T) {
	now, events, err := workload()
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				n, ev, err := workload()
				if err == nil && (n != now || ev != events) {
					err = fmt.Errorf("(now, events) = (%d, %d), want (%d, %d)", n, ev, now, events)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("engine %d: %v", i, err)
		}
	}
}

// A process still blocked when Run drains is reported as deadlocked but
// keeps its suspended coroutine: a later Run can wake it, and it then
// finishes normally.
func TestBlockedProcResumesInLaterRun(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "late")
	done := false
	p := e.Spawn("waiter", func(p *Proc) {
		sem.WaitGE(p, 1)
		done = true
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("first Run: expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "waiter (semaphore late)" {
		t.Fatalf("first Run: blocked = %v, want [waiter (semaphore late)]", de.Blocked)
	}
	if done || p.w == nil {
		t.Fatalf("after first Run: done = %v, worker held = %v", done, p.w != nil)
	}
	sem.SignalAt(e.Now() + 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || p.w != nil {
		t.Fatalf("after second Run: done = %v, worker held = %v", done, p.w != nil)
	}
	if e.Runs() != 2 {
		t.Fatalf("Runs() = %d, want 2", e.Runs())
	}
}

// More simultaneous processes than the pool keeps idle: every one runs,
// the surplus workers are stopped, and idle workers hold no process.
func TestWorkerPoolCap(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "gate")
	const procs = maxIdleWorkers + 64
	woke := 0
	for i := 0; i < procs; i++ {
		e.Spawn("tb", func(p *Proc) {
			sem.WaitGE(p, 1)
			woke++
		})
	}
	e.At(1, func() { sem.Add(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != procs {
		t.Fatalf("woke %d of %d", woke, procs)
	}
	workers.Lock()
	defer workers.Unlock()
	if n := len(workers.idle); n > maxIdleWorkers {
		t.Fatalf("%d idle workers, cap %d", n, maxIdleWorkers)
	}
	for _, w := range workers.idle {
		if w.p != nil {
			t.Fatal("idle worker still references a process")
		}
	}
}
