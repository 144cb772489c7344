package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1500)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 1500 {
		t.Fatalf("woke at %d, want 1500", woke)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	order := []string{}
	e.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(-5)
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("got %v", order)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d for zero-length sleeps", e.Now())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		e.At(10, func() { order = append(order, "x10a") })
		e.At(5, func() { order = append(order, "x5") })
		e.At(10, func() { order = append(order, "x10b") })
		e.At(0, func() { order = append(order, "x0") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"x0", "x5", "x10a", "x10b"}
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestPastEventClamped(t *testing.T) {
	e := NewEngine()
	var ran Time = -1
	e.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		e.At(50, func() { ran = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("past event ran at %d, want clamped to 100", ran)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childTime Time = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(7)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(3)
			childTime = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 10 {
		t.Fatalf("child finished at %d, want 10", childTime)
	}
}

func TestSemaphoreSignalWait(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s")
	var waited Time = -1
	e.Spawn("waiter", func(p *Proc) {
		sem.WaitGE(p, 2)
		waited = p.Now()
	})
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(100)
		sem.Add(1)
		p.Sleep(100)
		sem.Add(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 200 {
		t.Fatalf("waiter resumed at %d, want 200", waited)
	}
	if sem.Value() != 2 {
		t.Fatalf("sem value %d, want 2", sem.Value())
	}
}

func TestSemaphoreAlreadySatisfied(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s")
	sem.Add(5)
	var waited Time = -1
	e.Spawn("waiter", func(p *Proc) {
		sem.WaitGE(p, 3)
		waited = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 0 {
		t.Fatalf("pre-satisfied wait blocked until %d", waited)
	}
}

func TestSemaphoreManyWaiters(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s")
	resumed := 0
	for i := 1; i <= 10; i++ {
		target := uint64(i)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			sem.WaitGE(p, target)
			resumed++
		})
	}
	e.Spawn("sig", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10)
			sem.Add(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 10 {
		t.Fatalf("resumed %d of 10 waiters", resumed)
	}
}

func TestSemaphoreAddFromCallback(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s")
	var waited Time = -1
	e.Spawn("waiter", func(p *Proc) {
		sem.WaitGE(p, 1)
		waited = p.Now()
	})
	e.At(77, func() { sem.Add(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 77 {
		t.Fatalf("waiter resumed at %d, want 77", waited)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "never")
	e.Spawn("stuck", func(p *Proc) {
		sem.WaitGE(p, 1)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestResourceFIFOSerialization(t *testing.T) {
	r := NewResource("link")
	s1, e1 := r.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first reservation [%d,%d], want [0,100]", s1, e1)
	}
	// Second request issued at t=10 must queue behind the first.
	s2, e2 := r.Reserve(10, 50)
	if s2 != 100 || e2 != 150 {
		t.Fatalf("second reservation [%d,%d], want [100,150]", s2, e2)
	}
	// Request after the resource is idle starts immediately.
	s3, e3 := r.Reserve(1000, 25)
	if s3 != 1000 || e3 != 1025 {
		t.Fatalf("third reservation [%d,%d], want [1000,1025]", s3, e3)
	}
	if r.BusyTime() != 175 {
		t.Fatalf("busy time %d, want 175", r.BusyTime())
	}
	if r.Reservations() != 3 {
		t.Fatalf("reservations %d, want 3", r.Reservations())
	}
}

func TestResourceZeroAndNegativeDuration(t *testing.T) {
	r := NewResource("x")
	s, e := r.Reserve(5, 0)
	if s != 5 || e != 5 {
		t.Fatalf("zero-length reservation [%d,%d]", s, e)
	}
	s, e = r.Reserve(5, -10)
	if s != 5 || e != 5 {
		t.Fatalf("negative-length reservation [%d,%d]", s, e)
	}
}

// Property: for any set of (arrival, duration) pairs presented in arrival
// order, resource reservations never overlap and never start before arrival.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewResource("p")
		var arrivals []Time
		var at Time
		for i, v := range raw {
			at += Time(v % 97)
			arrivals = append(arrivals, at)
			_ = i
		}
		prevEnd := Time(-1)
		for i, a := range arrivals {
			dur := Duration(raw[i] % 53)
			s, e := r.Reserve(a, dur)
			if s < a {
				return false
			}
			if s < prevEnd {
				return false
			}
			if e != s+dur {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSemaphoreChainedWake checks that a wake chained inside a recheck
// sweep resumes in that same sweep: B waits first for 2, A for 1. Add(1)
// wakes A, whose own Add(1) satisfies B, so the sweep's second pass must
// resume B before the marker event the kicker scheduled right after its
// Add (a B woken only by the recheck event A's Add schedules would resume
// after the marker).
func TestSemaphoreChainedWake(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "chain")
	var order []string
	e.Spawn("B", func(p *Proc) {
		sem.WaitGE(p, 2)
		order = append(order, "B")
	})
	e.Spawn("A", func(p *Proc) {
		sem.WaitGE(p, 1)
		order = append(order, "A")
		sem.Add(1)
	})
	e.Spawn("kick", func(p *Proc) {
		p.Sleep(10)
		sem.Add(1)
		e.At(p.Now(), func() { order = append(order, "marker") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "marker"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("resume order %v, want %v", order, want)
	}
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 500
	sem := NewSemaphore(e, "barrier")
	finished := 0
	for i := 0; i < n; i++ {
		d := Duration(i % 17)
		e.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			sem.Add(1)
			sem.WaitGE(p, n)
			finished++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
}

// Property: simulation end time equals the max over procs of total sleep,
// when procs are independent.
func TestIndependentProcsEndTimeProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine()
		var maxTotal Time
		for _, d := range durs {
			total := Time(0)
			steps := int(d%5) + 1
			per := Duration(d % 1000)
			for i := 0; i < steps; i++ {
				total += per
			}
			if total > maxTotal {
				maxTotal = total
			}
			e.Spawn("w", func(p *Proc) {
				for i := 0; i < steps; i++ {
					p.Sleep(per)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == maxTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
