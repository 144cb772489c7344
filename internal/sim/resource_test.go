package sim

import (
	"reflect"
	"testing"
)

// reservation is one step of a hand-computed contention schedule: a request
// at time now for dur ns, expected to be granted [start, start+dur).
type reservation struct {
	now, dur    int64
	wantStart   int64
	wantEnd     int64
	wantQDelay  int64 // cumulative after this reservation
	wantIdle    int64 // cumulative after this reservation
	wantMaxHere int   // max queue depth after this reservation
}

// TestResourceCountersContention drives hand-computed schedules of two and
// three overlapping reservers through one resource and asserts the exact
// queue-delay, idle-gap and max-depth accounting after every step.
func TestResourceCountersContention(t *testing.T) {
	cases := []struct {
		name  string
		sched []reservation
	}{
		{
			// Two reservers, second arrives mid-occupancy of the first:
			// it queues for 60 ns (100+100-140), depth 2.
			name: "two overlapping",
			sched: []reservation{
				{now: 100, dur: 100, wantStart: 100, wantEnd: 200, wantQDelay: 0, wantIdle: 0, wantMaxHere: 1},
				{now: 140, dur: 50, wantStart: 200, wantEnd: 250, wantQDelay: 60, wantIdle: 0, wantMaxHere: 2},
			},
		},
		{
			// Three reservers piling up within the first occupancy: the
			// third waits for both predecessors (250-120 = 130), depth 3.
			name: "three overlapping",
			sched: []reservation{
				{now: 0, dur: 200, wantStart: 0, wantEnd: 200, wantQDelay: 0, wantIdle: 0, wantMaxHere: 1},
				{now: 80, dur: 50, wantStart: 200, wantEnd: 250, wantQDelay: 120, wantIdle: 0, wantMaxHere: 2},
				{now: 120, dur: 10, wantStart: 250, wantEnd: 260, wantQDelay: 250, wantIdle: 0, wantMaxHere: 3},
			},
		},
		{
			// Idle gap between occupancies, then renewed contention: the gap
			// [50, 300) counts as idle, and the late burst queues again.
			name: "idle gap then burst",
			sched: []reservation{
				{now: 10, dur: 40, wantStart: 10, wantEnd: 50, wantQDelay: 0, wantIdle: 0, wantMaxHere: 1},
				{now: 300, dur: 100, wantStart: 300, wantEnd: 400, wantQDelay: 0, wantIdle: 250, wantMaxHere: 1},
				{now: 310, dur: 100, wantStart: 400, wantEnd: 500, wantQDelay: 90, wantIdle: 250, wantMaxHere: 2},
				{now: 320, dur: 100, wantStart: 500, wantEnd: 600, wantQDelay: 270, wantIdle: 250, wantMaxHere: 3},
			},
		},
		{
			// Back-to-back (end == next request): no queue delay, no idle
			// gap, and the finished occupancy does not count toward depth.
			name: "back to back",
			sched: []reservation{
				{now: 0, dur: 100, wantStart: 0, wantEnd: 100, wantQDelay: 0, wantIdle: 0, wantMaxHere: 1},
				{now: 100, dur: 100, wantStart: 100, wantEnd: 200, wantQDelay: 0, wantIdle: 0, wantMaxHere: 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewResource("res")
			var wantBusy int64
			for i, step := range tc.sched {
				start, end := r.Reserve(step.now, step.dur)
				wantBusy += step.dur
				if start != step.wantStart || end != step.wantEnd {
					t.Errorf("step %d: Reserve(%d, %d) = [%d, %d), want [%d, %d)",
						i, step.now, step.dur, start, end, step.wantStart, step.wantEnd)
				}
				if got := r.QueueDelay(); got != step.wantQDelay {
					t.Errorf("step %d: QueueDelay = %d, want %d", i, got, step.wantQDelay)
				}
				if got := r.Stats().IdleNs; got != step.wantIdle {
					t.Errorf("step %d: IdleNs = %d, want %d", i, got, step.wantIdle)
				}
				if got := r.MaxQueueDepth(); got != step.wantMaxHere {
					t.Errorf("step %d: MaxQueueDepth = %d, want %d", i, got, step.wantMaxHere)
				}
				if got := r.BusyTime(); got != wantBusy {
					t.Errorf("step %d: BusyTime = %d, want %d", i, got, wantBusy)
				}
				if got := r.Reservations(); got != uint64(i+1) {
					t.Errorf("step %d: Reservations = %d, want %d", i, got, i+1)
				}
			}
		})
	}
}

// TestReserveJointCounters checks joint (crossbar-style) reservations: the
// granted interval starts when the last member frees up, queue delay is
// charged per member for the wait that member alone imposed, and a member
// held up only by a busier peer accrues idle time instead.
func TestReserveJointCounters(t *testing.T) {
	a := NewResource("a")
	b := NewResource("b")
	// Occupy a until 100 and b until 300.
	a.Reserve(0, 100)
	b.Reserve(0, 300)
	// A joint flow over {a, b} requested at 50 must start at 300.
	start, end := ReserveJoint(50, 10, a, b)
	if start != 300 || end != 310 {
		t.Fatalf("ReserveJoint = [%d, %d), want [300, 310)", start, end)
	}
	// a imposed 50 ns of wait itself (busy until 100) and sat idle from its
	// free instant 100 to the joint start 300.
	if got := a.QueueDelay(); got != 50 {
		t.Errorf("a.QueueDelay = %d, want 50", got)
	}
	if got := a.Stats().IdleNs; got != 200 {
		t.Errorf("a.IdleNs = %d, want 200", got)
	}
	// b was the bottleneck: 250 ns of wait, no idle gap.
	if got := b.QueueDelay(); got != 250 {
		t.Errorf("b.QueueDelay = %d, want 250", got)
	}
	if got := b.Stats().IdleNs; got != 0 {
		t.Errorf("b.IdleNs = %d, want 0", got)
	}
	// Both saw two overlapping reservations at the joint request instant.
	if got := a.MaxQueueDepth(); got != 2 {
		t.Errorf("a.MaxQueueDepth = %d, want 2", got)
	}
	if got := b.MaxQueueDepth(); got != 2 {
		t.Errorf("b.MaxQueueDepth = %d, want 2", got)
	}
}

// TestReserveJointIdleResources checks the degenerate joint reservation
// over idle resources: granted at now, no delay anywhere.
func TestReserveJointIdleResources(t *testing.T) {
	a := NewResource("a")
	b := NewResource("b")
	start, end := ReserveJoint(42, 8, a, b)
	if start != 42 || end != 50 {
		t.Fatalf("ReserveJoint = [%d, %d), want [42, 50)", start, end)
	}
	for _, r := range []*Resource{a, b} {
		s := r.Stats()
		if s.QueueDelayNs != 0 || s.IdleNs != 0 || s.MaxQueueDepth != 1 || s.Reservations != 1 || s.BusyNs != 8 {
			t.Errorf("%s stats = %+v, want uncontended single reservation", r.Name, s)
		}
	}
}

// TestResourceResetFresh is the Reset regression test: after an arbitrary
// contended history, Reset must make the resource indistinguishable from a
// fresh one — identical snapshot, identical FreeAt, and identical behavior
// on a subsequent schedule.
func TestResourceResetFresh(t *testing.T) {
	used := NewResource("r")
	// A history touching every counter: contention (queue delay + depth)
	// and an idle gap.
	used.Reserve(0, 100)
	used.Reserve(30, 50)
	used.Reserve(40, 25)
	used.Reserve(1000, 10)
	if used.QueueDelay() == 0 || used.Stats().IdleNs == 0 || used.MaxQueueDepth() < 3 {
		t.Fatalf("history did not exercise all counters: %+v", used.Stats())
	}
	used.Reset()

	fresh := NewResource("r")
	if got, want := used.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("reset stats = %+v, fresh = %+v", got, want)
	}
	if used.FreeAt() != fresh.FreeAt() {
		t.Errorf("reset FreeAt = %d, fresh = %d", used.FreeAt(), fresh.FreeAt())
	}
	// Replay one schedule on both; every observable must stay in lockstep.
	sched := []struct{ now, dur int64 }{{5, 20}, {10, 30}, {200, 5}, {201, 5}}
	for i, s := range sched {
		s1, e1 := used.Reserve(s.now, s.dur)
		s2, e2 := fresh.Reserve(s.now, s.dur)
		if s1 != s2 || e1 != e2 {
			t.Errorf("step %d: reset granted [%d, %d), fresh [%d, %d)", i, s1, e1, s2, e2)
		}
	}
	if got, want := used.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-replay stats diverge: reset %+v, fresh %+v", got, want)
	}
}

// TestGroupSkipsNil checks the CounterGroup helper used by mesh fabrics
// whose self-pair slots are nil.
func TestGroupSkipsNil(t *testing.T) {
	a := NewResource("a")
	a.Reserve(0, 7)
	g := Group("mesh", nil, a, nil)
	if g.Name != "mesh" || len(g.Stats) != 1 || g.Stats[0].Name != "a" || g.Stats[0].BusyNs != 7 {
		t.Errorf("Group = %+v, want single snapshot of a", g)
	}
}
