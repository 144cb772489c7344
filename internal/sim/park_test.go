package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// waitSleep is the Action form of a process body fragment "WaitGE(s, 1);
// Sleep(d); log": it runs on behalf of a parked process and resumes it
// when done.
type waitSleep struct {
	p     *Proc
	s     *Semaphore
	d     Duration
	log   *[]string
	stage int
}

// run advances the fragment until it blocks (false) or is done (true).
func (a *waitSleep) run() bool {
	for {
		switch a.stage {
		case 0:
			a.stage = 1
			if a.s.Await(a, a.p, 1) {
				return false
			}
		case 1:
			a.stage = 2
			a.p.Engine().Do(a.p.Now()+a.d, a)
			return false
		default:
			*a.log = append(*a.log, fmt.Sprintf("%s@%d", a.p.Name, a.p.Now()))
			return true
		}
	}
}

func (a *waitSleep) Fire() {
	if a.run() {
		a.p.Fire()
	}
}

// TestParkedActionOrdersLikeProc runs the same waits and sleeps once in
// the processes themselves and once as Actions for parked processes, with
// a probe event and an adder tied on the same instants. The logs, the end
// time and the event count must match: Do takes the sequence number the
// sleep would have, and a semaphore fires an Action waiter where it would
// have dispatched the process. Only the process wakes differ: each
// worker's wait and sleep become one Fire.
func TestParkedActionOrdersLikeProc(t *testing.T) {
	run := func(parked bool) (log []string, end Time, events, wakes uint64) {
		e := NewEngine()
		s := NewSemaphore(e, "gate")
		for i, d := range []Duration{4, 0, 4} {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				if parked {
					if a := (&waitSleep{p: p, s: s, d: d, log: &log}); !a.run() {
						p.Park("waitSleep")
					}
				} else {
					s.WaitGE(p, 1)
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%d", p.Name, p.Now()))
				}
				p.Sleep(0)
				log = append(log, p.Name+" after")
			})
		}
		e.Spawn("adder", func(p *Proc) {
			p.Sleep(5)
			s.Add(1)
			log = append(log, "add")
		})
		e.At(9, func() { log = append(log, "probe@9") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, e.Now(), e.EventsRun(), e.Wakes()
	}
	wantLog, wantEnd, wantEvents, procWakes := run(false)
	log, end, events, wakes := run(true)
	if !reflect.DeepEqual(log, wantLog) || end != wantEnd || events != wantEvents {
		t.Fatalf("parked run: %v, end %d, %d events; process run: %v, end %d, %d events",
			log, end, events, wantLog, wantEnd, wantEvents)
	}
	// Process run: each worker starts, wakes from WaitGE, from Sleep(d) and
	// from Sleep(0); the adder starts and wakes once. Parked run: a worker
	// starts, is fired once and wakes from Sleep(0).
	if procWakes != 3*4+2 || wakes != 3*3+2 {
		t.Fatalf("wakes = %d parked, %d as processes; want 11 and 14", wakes, procWakes)
	}
}

// TestParkedDeadlockNamesSemaphore checks that a process parked for an
// Action blocked on a semaphore is reported blocked on that semaphore.
func TestParkedDeadlockNamesSemaphore(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "gate")
	var log []string
	e.Spawn("w", func(p *Proc) {
		a := &waitSleep{p: p, s: s, log: &log}
		if !a.run() {
			p.Park("waitSleep")
		}
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a *DeadlockError", err)
	}
	if want := []string{"w (semaphore gate)"}; !reflect.DeepEqual(dl.Blocked, want) {
		t.Fatalf("blocked = %q, want %q", dl.Blocked, want)
	}
}
