package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestRestartRunsAgain: a finished process started again runs its body from
// the beginning at the restart time, under its name, with the events of a
// fresh Spawn of the same body.
func TestRestartRunsAgain(t *testing.T) {
	e := NewEngine()
	var log []string
	body := func(p *Proc) {
		log = append(log, fmt.Sprintf("%s@%d", p.Name, p.Now()))
		p.Sleep(10)
		p.Sleep(0)
	}
	run := func(start func()) (string, uint64) {
		log = nil
		before := e.EventsRun()
		start()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log), e.EventsRun() - before
	}
	p := e.NewProc("w", body)
	if p.Live() {
		t.Fatal("a process that was never started is live")
	}
	first, firstEvents := run(p.Start)
	if first != "[w@0]" || p.Live() {
		t.Fatalf("first run logged %s, live %v; want [w@0], not live", first, p.Live())
	}
	again, againEvents := run(p.Start)
	if again != "[w@10]" || againEvents != firstEvents {
		t.Fatalf("restart logged %s in %d events, want [w@10] in %d", again, againEvents, firstEvents)
	}
	fresh, freshEvents := run(func() { e.Spawn("w", body) })
	if fresh != "[w@20]" || freshEvents != againEvents {
		t.Fatalf("fresh Spawn logged %s in %d events, restart %s in %d", fresh, freshEvents, again, againEvents)
	}
	// A restart from an event context starts at that event's time.
	late, _ := run(func() { e.At(e.Now()+15, p.Start) })
	if late != "[w@45]" {
		t.Fatalf("restart at t=45 logged %s", late)
	}
}

// TestStartLivePanics: a process that is started and not finished — queued
// to start, or still blocked after a deadlocked Run — cannot be started
// again; the panic names it.
func TestStartLivePanics(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "never")
	p := e.Spawn("stuck", func(p *Proc) { sem.WaitGE(p, 1) })
	mustPanicNaming(t, "stuck", p.Start) // queued, not yet dispatched
	if _, ok := e.Run().(*DeadlockError); !ok {
		t.Fatal("want a deadlock")
	}
	mustPanicNaming(t, "stuck", p.Start) // blocked after the deadlock
	if !p.Live() {
		t.Fatal("a blocked process is not live")
	}
}

func mustPanicNaming(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, name) {
			t.Fatalf("panic %q, want one naming %s", msg, name)
		}
	}()
	f()
}

// TestNumberedSemaphoreReset: a numbered semaphore is named by its number,
// and Reset renumbers it at value zero; a reset with a waiter panics.
func TestNumberedSemaphoreReset(t *testing.T) {
	e := NewEngine()
	s := NewNumberedSemaphore(e, "ll/flag", 1)
	s.Add(3)
	s.Reset(2)
	if s.Name() != "ll/flag2" || s.Value() != 0 {
		t.Fatalf("after Reset(2): %s = %d, want ll/flag2 = 0", s.Name(), s.Value())
	}
	e.Spawn("w", func(p *Proc) { s.WaitGE(p, 1) })
	err := e.Run()
	if de, ok := err.(*DeadlockError); !ok || de.Blocked[0] != "w (semaphore ll/flag2)" {
		t.Fatalf("Run = %v, want w blocked on semaphore ll/flag2", err)
	}
	if s.Waiting() != 1 {
		t.Fatalf("Waiting() = %d, want 1", s.Waiting())
	}
	mustPanicNaming(t, "ll/flag2", func() { s.Reset(3) })
}
