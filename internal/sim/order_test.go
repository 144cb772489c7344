package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// orderQueue is what a generated schedule drives: the engine, or refQueue,
// a naive reference with the engine's ordering contract.
type orderQueue interface {
	now() Time
	at(t Time, fn func())
	do(t Time, fn func())
	signalAt(t Time)
	feed(ts []Time, fire func(i int))
	sleeper(ds []Duration, wake func(k int))
	semValue() uint64
	run() uint64 // drains the queue and returns the number of events run
}

// fireFunc adapts a func to Action.
type fireFunc func()

func (f fireFunc) Fire() { f() }

// engineQueue drives an Engine through its public API.
type engineQueue struct {
	e   *Engine
	sem *Semaphore
}

func newEngineQueue() engineQueue {
	e := NewEngine()
	return engineQueue{e: e, sem: NewSemaphore(e, "order")}
}

func (q engineQueue) now() Time                        { return q.e.Now() }
func (q engineQueue) at(t Time, fn func())             { q.e.At(t, fn) }
func (q engineQueue) do(t Time, fn func())             { q.e.Do(t, fireFunc(fn)) }
func (q engineQueue) signalAt(t Time)                  { q.sem.SignalAt(t) }
func (q engineQueue) feed(ts []Time, fire func(i int)) { q.e.Feed(ts, fire) }
func (q engineQueue) semValue() uint64                 { return q.sem.Value() }
func (q engineQueue) sleeper(ds []Duration, wake func(k int)) {
	q.e.Spawn("sleeper", func(p *Proc) {
		for k, d := range ds {
			p.Sleep(d)
			wake(k)
		}
	})
}

func (q engineQueue) run() uint64 {
	if err := q.e.Run(); err != nil {
		panic(err)
	}
	return q.e.EventsRun()
}

// refQueue is the reference: a slice kept sorted by (time, schedule
// counter), where a time before now counts as now. A fed list is one at per
// entry, a semaphore SignalAt an at that adds 1, and a process a chain of ats,
// one per dispatch.
type refQueue struct {
	t   Time
	n   uint64 // schedule counter
	evs []refEvent
	sem uint64
}

type refEvent struct {
	t  Time
	n  uint64
	fn func()
}

func (q *refQueue) now() Time { return q.t }

func (q *refQueue) at(t Time, fn func()) {
	if t < q.t {
		t = q.t
	}
	q.n++
	i := sort.Search(len(q.evs), func(i int) bool { return q.evs[i].t > t })
	q.evs = append(q.evs, refEvent{})
	copy(q.evs[i+1:], q.evs[i:])
	q.evs[i] = refEvent{t: t, n: q.n, fn: fn}
}

func (q *refQueue) do(t Time, fn func()) { q.at(t, fn) }
func (q *refQueue) signalAt(t Time)      { q.at(t, func() { q.sem++ }) }
func (q *refQueue) semValue() uint64     { return q.sem }

func (q *refQueue) feed(ts []Time, fire func(i int)) {
	for i, t := range ts {
		q.at(t, func() { fire(i) })
	}
}

// sleeper mirrors a process that sleeps ds[0], ds[1], ... and calls wake(k)
// after the k-th sleep: its start is scheduled now (Spawn), and each
// dispatch runs the previous wake, then schedules the next.
func (q *refQueue) sleeper(ds []Duration, wake func(k int)) {
	var step func(k int)
	step = func(k int) {
		if k > 0 {
			wake(k - 1)
		}
		if k < len(ds) {
			q.at(q.t+max(ds[k], 0), func() { step(k + 1) })
		}
	}
	q.at(q.t, func() { step(0) })
}

func (q *refQueue) run() uint64 {
	ran := uint64(0)
	for len(q.evs) > 0 {
		ev := q.evs[0]
		q.evs = q.evs[1:]
		q.t = ev.t
		ran++
		ev.fn()
	}
	return ran
}

// orderSchedule runs one generated schedule on q and returns its firing log
// ("time:name:semaphore value" per logged event) and the number of events
// run. Every random draw comes from rng in firing order, so two queues that
// fire the same events in the same order draw the same schedule. probe, if
// set, runs after each logged event.
//
// The schedule mixes At, Do, SignalAt, Feed and sleeping processes, before Run
// and from inside running events. Times fall mostly 1 to 8 ns ahead (nine
// distinct future times, more than the engine's chain table holds), so ties
// are the rule and chains at one time are evicted and reopened; fed lists
// take small steps, so their entries land on times with open chains.
func orderSchedule(rng *rand.Rand, q orderQueue, probe func()) ([]string, uint64) {
	var log []string
	budget, feeds, sleepers := 300, 0, 0
	var act func(name string)
	later := func() Time {
		if rng.Intn(8) == 0 {
			return q.now() + Time(rng.Intn(40))
		}
		return q.now() + Time(rng.Intn(10)) - 1
	}
	sched := func() {
		budget--
		id := budget
		switch rng.Intn(8) {
		case 0, 1:
			q.at(later(), func() { act(fmt.Sprintf("at%d", id)) })
		case 2, 3:
			q.do(later(), func() { act(fmt.Sprintf("do%d", id)) })
		case 4:
			q.signalAt(later())
		case 5:
			if feeds < 6 {
				feeds++
				ts := make([]Time, 1+rng.Intn(12))
				t := q.now() + Time(rng.Intn(4)) - 1
				for i := range ts {
					t += Time(rng.Intn(3) / 2)
					ts[i] = t
				}
				q.feed(ts, func(i int) { act(fmt.Sprintf("f%d[%d]", id, i)) })
			}
		case 6:
			if sleepers < 8 {
				sleepers++
				ds := make([]Duration, 1+rng.Intn(5))
				for i := range ds {
					ds[i] = Duration(rng.Intn(7)) - 1
				}
				q.sleeper(ds, func(k int) { act(fmt.Sprintf("p%d.%d", id, k)) })
			}
		}
	}
	act = func(name string) {
		log = append(log, fmt.Sprintf("%d:%s:%d", q.now(), name, q.semValue()))
		if probe != nil {
			probe()
		}
		for k := rng.Intn(3); k > 0 && budget > 0; k-- {
			sched()
		}
	}
	for i := 0; i < 12; i++ {
		sched()
	}
	n := q.run()
	return log, n
}

// orderCoverage counts the engine states the differential test must reach.
type orderCoverage struct {
	chained  int // a heap entry standing for a chain of two or more events
	reopened int // two chains at one time: the first was evicted from the table
	straddle int // a fed entry at a chain's time, between two of its seqs
}

// probe inspects e's heap and counts the states it is in.
func (c *orderCoverage) probe(e *Engine) {
	type span struct{ lo, hi uint32 }
	chains := map[Time][]span{}
	var fed []heapEnt
	for _, h := range e.heap {
		pl := &e.slots[h.slot]
		if _, ok := pl.a.(*feed); ok {
			fed = append(fed, h)
			continue
		}
		s := span{lo: h.seq, hi: h.seq}
		for next := pl.next; next >= 0; next = e.slots[next].next {
			s.hi = e.slots[next].seq
		}
		if s.hi != s.lo {
			c.chained++
		}
		chains[h.t] = append(chains[h.t], s)
	}
	for _, ss := range chains {
		if len(ss) > 1 {
			c.reopened++
		}
	}
	for _, f := range fed {
		for _, s := range chains[f.t] {
			if int32(f.seq-s.lo) > 0 && int32(s.hi-f.seq) > 0 {
				c.straddle++
			}
		}
	}
}

// compareOrder runs the schedule drawn from newRNG on the engine and on the
// reference, fails t on any difference (naming the schedule by label), and
// returns the engine's coverage.
func compareOrder(t *testing.T, label string, newRNG func() *rand.Rand) orderCoverage {
	t.Helper()
	want, wantN := orderSchedule(newRNG(), &refQueue{}, nil)
	q := newEngineQueue()
	var cov orderCoverage
	got, gotN := orderSchedule(newRNG(), q, func() { cov.probe(q.e) })
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d: engine fired %s, reference %s (engine log %d events, reference %d)", label, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: engine logged %d events, reference %d", label, len(got), len(want))
	}
	if gotN != wantN {
		t.Fatalf("%s: engine ran %d events, reference %d", label, gotN, wantN)
	}
	return cov
}

// TestEngineOrderMatchesReference: seeded schedules fire in the same order,
// and run the same number of events, on the engine as on a naive queue
// sorted by (time, schedule counter). The schedules reach the states where
// chained ties could go wrong: a chain reopened at an evicted chain's time,
// and a fed entry whose reserved seq falls inside a chain.
func TestEngineOrderMatchesReference(t *testing.T) {
	var total orderCoverage
	for seed := int64(1); seed <= 300; seed++ {
		cov := compareOrder(t, fmt.Sprintf("seed %d", seed), func() *rand.Rand { return rand.New(rand.NewSource(seed)) })
		total.chained += cov.chained
		total.reopened += cov.reopened
		total.straddle += cov.straddle
	}
	if total.chained < 10000 || total.reopened < 10000 || total.straddle < 1000 {
		t.Fatalf("coverage %+v: the schedules are too weak", total)
	}
}

// byteSource is a rand.Source driven by fuzz input: each draw takes the
// next byte (so rng.Intn(n) draws byte % n), then splitmix64 once the input
// runs out.
type byteSource struct {
	data []byte
	x    uint64
}

func (s *byteSource) Seed(int64) {}

func (s *byteSource) Int63() int64 {
	if len(s.data) > 0 {
		b := s.data[0]
		s.data = s.data[1:]
		return int64(b) << 32
	}
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// FuzzEngineOrder runs the differential order test on schedules drawn from
// the fuzz input.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range []string{"", "\x05\x05\x05\x05", "\x06\x01\x00\x05\x02\x01\x02\x01\x02", "ties at one time, fed and chained"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareOrder(t, fmt.Sprintf("input %q", data), func() *rand.Rand { return rand.New(&byteSource{data: data}) })
	})
}
