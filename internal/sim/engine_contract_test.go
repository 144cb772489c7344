package sim

// Contract tests for the engine guarantees the hot-path overhaul must
// preserve: FIFO semaphore wake order, deferred semaphore delivery,
// Action events ordered like closures, and run-to-run determinism of both
// timing and event counts.

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestSemaphoreWakesFIFO checks that waiters released by one Add resume
// in the order they blocked, whatever their thresholds.
func TestSemaphoreWakesFIFO(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "fifo")
	var order []int
	for i := 0; i < 8; i++ {
		id := i
		e.Spawn("w", func(p *Proc) {
			sem.WaitGE(p, uint64(1+id%3))
			order = append(order, id)
		})
	}
	e.Spawn("kick", func(p *Proc) {
		p.Sleep(5)
		sem.Add(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("woke %d of 8", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

func TestSemaphoreSignalAt(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s")
	var woke Time = -1
	e.Spawn("waiter", func(p *Proc) {
		sem.WaitGE(p, 3)
		woke = p.Now()
	})
	sem.SignalAt(50)
	sem.SignalAt(120)
	sem.SignalAt(120)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 120 {
		t.Fatalf("waiter woke at %d, want 120", woke)
	}
	if sem.Value() != 3 {
		t.Fatalf("sem = %d, want 3", sem.Value())
	}
}

// TestSameInstantFIFOAcrossSources checks the ring/heap ordering invariant:
// events scheduled for time T before the clock reached T (heap residents)
// run before events scheduled at T from within T (ring residents), and each
// group runs in schedule order. A heap event's payload slot is one Action
// and its chain links: 24 bytes.
func TestSameInstantFIFOAcrossSources(t *testing.T) {
	if got := unsafe.Sizeof(payload{}); got != 24 {
		t.Fatalf("payload slot is %d bytes, want 24", got)
	}
	e := NewEngine()
	var order []string
	e.At(10, func() {
		order = append(order, "early-a")
		e.At(10, func() { order = append(order, "late-a") })
		e.At(10, func() { order = append(order, "late-b") })
	})
	e.At(10, func() { order = append(order, "early-b") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"early-a", "early-b", "late-a", "late-b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// tag is an Action that records its name.
type tag struct {
	name  string
	order *[]string
}

func (a *tag) Fire() { *a.order = append(*a.order, a.name) }

// TestDoOrdersLikeAt: an Action scheduled with Do takes the sequence number
// At would, so Do and At events interleave in schedule order, both in the
// heap (future time) and in the current-instant ring, and a scheduled
// Action allocates nothing.
func TestDoOrdersLikeAt(t *testing.T) {
	e := NewEngine()
	var order []string
	a, c := &tag{"do-a", &order}, &tag{"do-c", &order}
	e.Do(10, a)
	e.At(10, func() {
		order = append(order, "at-b")
		e.Do(10, c)
		e.At(10, func() { order = append(order, "at-d") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"do-a", "at-b", "do-c", "at-d"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	order = make([]string, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		e.Do(e.Now()+5, a)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Do + Run allocates %v objects per Action, want 0", n)
	}
}

// runWorkload runs workload on the test goroutine.
func runWorkload(t *testing.T) (Time, uint64) {
	t.Helper()
	now, events, err := workload()
	if err != nil {
		t.Fatal(err)
	}
	return now, events
}

func TestDeterministicReplay(t *testing.T) {
	now1, events1 := runWorkload(t)
	for trial := 0; trial < 3; trial++ {
		now2, events2 := runWorkload(t)
		if now2 != now1 || events2 != events1 {
			t.Fatalf("trial %d: (now, events) = (%d, %d), want (%d, %d)",
				trial, now2, events2, now1, events1)
		}
	}
}
