package proxy

// Timing-contract tests for the callback-based proxy state machine: the
// event formulation must charge exactly the same virtual-time costs as the
// original proxy-thread formulation (poll delay on an idle queue, handle
// cost per request, stalls delaying subsequent requests, and FIFO
// backpressure on a bounded queue).

import (
	"slices"
	"strings"
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/sim"
)

// spawn starts the pusher of these tests: a thread block that runs body
// on its own Kernel and then waits for its queued calls, as a launched
// block does. The tests charge no issue overhead before a push.
func spawn(e *sim.Engine, name string, body func(k *machine.Kernel)) {
	e.Spawn(name, func(p *sim.Proc) {
		k := &machine.Kernel{P: p}
		body(k)
		k.Drain()
	})
}

var testCfg = Config{Capacity: 4, PushCost: 5, PollDelay: 10, HandleCost: 7}

func TestIdleQueueChargesPollDelay(t *testing.T) {
	e := sim.NewEngine()
	var handledAt []sim.Time
	svc := NewService(e, "t", testCfg, func(now sim.Time, req Request) sim.Time {
		handledAt = append(handledAt, now)
		return now
	})
	spawn(e, "gpu", func(k *machine.Kernel) {
		k.Elapse(100)
		svc.Push(k, 0, Request{Kind: KindSignal})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Push completes at 100+PushCost; the idle proxy notices after
	// PollDelay and handles after HandleCost.
	want := sim.Time(100 + testCfg.PushCost + testCfg.PollDelay + testCfg.HandleCost)
	if len(handledAt) != 1 || handledAt[0] != want {
		t.Fatalf("handledAt = %v, want [%d]", handledAt, want)
	}
	if svc.Handled() != 1 || svc.Pending() != 0 {
		t.Fatalf("handled=%d pending=%d", svc.Handled(), svc.Pending())
	}
}

func TestBusyQueueSkipsPollDelay(t *testing.T) {
	e := sim.NewEngine()
	var handledAt []sim.Time
	svc := NewService(e, "t", testCfg, func(now sim.Time, req Request) sim.Time {
		handledAt = append(handledAt, now)
		return now
	})
	spawn(e, "gpu", func(k *machine.Kernel) {
		svc.Push(k, 0, Request{Kind: KindSignal})
		svc.Push(k, 0, Request{Kind: KindSignal})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(handledAt) != 2 {
		t.Fatalf("handled %d requests", len(handledAt))
	}
	// Second request is picked up back-to-back: only HandleCost apart, no
	// second poll delay.
	if handledAt[1]-handledAt[0] != testCfg.HandleCost {
		t.Fatalf("back-to-back spacing = %d, want %d", handledAt[1]-handledAt[0], testCfg.HandleCost)
	}
}

func TestStallDelaysSubsequentRequests(t *testing.T) {
	e := sim.NewEngine()
	const stall = 50
	var handledAt []sim.Time
	svc := NewService(e, "t", testCfg, func(now sim.Time, req Request) sim.Time {
		handledAt = append(handledAt, now)
		if req.Kind == KindFlush {
			return now + stall
		}
		return now
	})
	spawn(e, "gpu", func(k *machine.Kernel) {
		svc.Push(k, 0, Request{Kind: KindFlush})
		svc.Push(k, 0, Request{Kind: KindSignal})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(handledAt) != 2 {
		t.Fatalf("handled %d requests", len(handledAt))
	}
	if got := handledAt[1] - handledAt[0]; got != stall+testCfg.HandleCost {
		t.Fatalf("post-stall spacing = %d, want %d", got, stall+testCfg.HandleCost)
	}
}

func TestBoundedQueueBackpressure(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{Capacity: 2, PushCost: 1, PollDelay: 10, HandleCost: 100}
	svc := NewService(e, "t", cfg, func(now sim.Time, req Request) sim.Time { return now })
	var pushDone []sim.Time
	spawn(e, "gpu", func(k *machine.Kernel) {
		for i := 0; i < 4; i++ {
			svc.Push(k, 0, Request{Kind: KindSignal})
			pushDone = append(pushDone, k.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if svc.Handled() != 4 {
		t.Fatalf("handled = %d, want 4", svc.Handled())
	}
	// Pushes 1 and 2 land immediately; push 3 must wait until the proxy
	// drains a slot (well after the unconstrained pushes).
	if pushDone[1] != 2 {
		t.Fatalf("second push finished at %d, want 2", pushDone[1])
	}
	if pushDone[2] <= cfg.PollDelay {
		t.Fatalf("third push finished at %d, expected backpressure past the first drain", pushDone[2])
	}
}

func TestReIdleChargesPollDelayAgain(t *testing.T) {
	e := sim.NewEngine()
	var handledAt []sim.Time
	svc := NewService(e, "t", testCfg, func(now sim.Time, req Request) sim.Time {
		handledAt = append(handledAt, now)
		return now
	})
	spawn(e, "gpu", func(k *machine.Kernel) {
		svc.Push(k, 0, Request{Kind: KindSignal})
		k.Elapse(1000) // let the proxy drain and go idle
		svc.Push(k, 0, Request{Kind: KindSignal})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(handledAt) != 2 {
		t.Fatalf("handled %d requests", len(handledAt))
	}
	push2Done := sim.Time(1000 + testCfg.PushCost + testCfg.PushCost)
	want := push2Done + testCfg.PollDelay + testCfg.HandleCost
	if handledAt[1] != want {
		t.Fatalf("re-idle handle at %d, want %d", handledAt[1], want)
	}
}

// TestConcurrentPushersRespectCapacity has three thread blocks push at the
// same instant into a two-slot FIFO that cannot drain before all of them
// finish their push cost. Each push takes a slot ticket first, so the third
// waits for the proxy's first pop instead of overfilling the queue.
func TestConcurrentPushersRespectCapacity(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{Capacity: 2, PushCost: 5, PollDelay: 100, HandleCost: 7}
	svc := NewService(e, "t", cfg, func(now sim.Time, req Request) sim.Time { return now })
	var pushDone []sim.Time
	for i := 0; i < 3; i++ {
		spawn(e, "gpu", func(k *machine.Kernel) {
			svc.Push(k, 0, Request{Kind: KindSignal})
			now := k.Now()
			if n := svc.Pending(); n > cfg.Capacity {
				t.Errorf("after push at %d: %d pending, capacity %d", now, n, cfg.Capacity)
			}
			pushDone = append(pushDone, now)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if svc.Handled() != 3 {
		t.Fatalf("handled = %d, want 3", svc.Handled())
	}
	// The third push starts when the proxy pops its first request, after
	// the first two pushes and the poll delay.
	if want := []sim.Time{5, 5, 5 + 100 + 5}; !slices.Equal(pushDone, want) {
		t.Fatalf("pushes finished at %v, want %v", pushDone, want)
	}
}

// TestFullQueueDeadlockNamesFIFO: a block that waits for a free slot in a
// queue that never drains is reported blocked on the FIFO's semaphore,
// although its push waits in a step of its Kernel rather than in the block.
func TestFullQueueDeadlockNamesFIFO(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{Capacity: 2, PushCost: 5, PollDelay: 10, HandleCost: 7}
	svc := NewService(e, "t", cfg, func(now sim.Time, req Request) sim.Time { return now })
	svc.running = true // the proxy never picks up a request
	spawn(e, "gpu", func(k *machine.Kernel) {
		for i := 0; i < 3; i++ {
			svc.Push(k, 0, Request{Kind: KindSignal})
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "1 process(es) blocked: gpu (semaphore proxy fifo t)") {
		t.Fatalf("Run = %v, want gpu blocked on the proxy FIFO", err)
	}
	if svc.Pending() != 2 {
		t.Fatalf("%d requests queued, want 2", svc.Pending())
	}
}
