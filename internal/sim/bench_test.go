package sim

// Microbenchmarks for the discrete-event engine hot path. These measure
// simulator *wall-clock* throughput (events/sec, allocs/op), not virtual
// time: they are the substrate benchmarks that bound how many paper
// scenarios the harness can sweep per core-hour.
//
// Run with:
//
//	go test ./internal/sim -bench=BenchmarkEngine -benchmem
//
// Baseline (pre-overhaul) and current numbers are recorded in BENCH_sim.json
// at the repository root.

import "testing"

// BenchmarkEngineEventThroughput measures steady-state schedule+run
// throughput of timed events: a window of in-flight events each rescheduling
// a successor, the shape of NIC-completion and signal-delivery traffic. The
// callback is shared, so the number measures pure scheduling machinery.
func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	const batch = 4096
	const window = 64 // in-flight timed events
	n := 0
	for n < b.N {
		e := NewEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count+window <= batch {
				e.After(Duration(count%7+1), tick)
			}
		}
		for i := 0; i < window; i++ {
			e.After(Duration(i%7+1), tick)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if count != batch {
			b.Fatalf("ran %d of %d events", count, batch)
		}
		n += batch
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineDeepHeap measures heap asymptotics: 4096 one-shot events
// scheduled up front and drained in timestamp order.
func BenchmarkEngineDeepHeap(b *testing.B) {
	b.ReportAllocs()
	const batch = 4096
	n := 0
	for n < b.N {
		e := NewEngine()
		sink := 0
		for i := 0; i < batch; i++ {
			e.At(Time(i), func() { sink++ })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if sink != batch {
			b.Fatalf("ran %d of %d events", sink, batch)
		}
		n += batch
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineSameInstant measures the same-timestamp dispatch path
// (Sleep(0), semaphore rechecks and same-instant completions all land here).
func BenchmarkEngineSameInstant(b *testing.B) {
	b.ReportAllocs()
	const batch = 4096
	n := 0
	for n < b.N {
		e := NewEngine()
		sink := 0
		var spin func()
		spin = func() {
			sink++
			if sink < batch {
				e.At(e.Now(), spin)
			}
		}
		e.At(0, spin)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		n += batch
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEnginePingPong measures park/dispatch latency: two processes
// alternating on a pair of semaphores, one wake per iteration — the pattern
// of every signal/wait channel synchronization in the simulator.
func BenchmarkEnginePingPong(b *testing.B) {
	b.ReportAllocs()
	const rounds = 1024
	n := 0
	for n < b.N {
		e := NewEngine()
		a := NewSemaphore(e, "a")
		z := NewSemaphore(e, "z")
		e.Spawn("ping", func(p *Proc) {
			for i := uint64(1); i <= rounds; i++ {
				a.Add(1)
				z.WaitGE(p, i)
			}
		})
		e.Spawn("pong", func(p *Proc) {
			for i := uint64(1); i <= rounds; i++ {
				a.WaitGE(p, i)
				z.Add(1)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		n += 2 * rounds
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "wakes/sec")
}

// BenchmarkEngineSleepChain measures the sleep/park/dispatch round trip of a
// single process advancing the clock — the thread-block Elapse hot path:
// one heap event per step, even with no other work pending.
func BenchmarkEngineSleepChain(b *testing.B) {
	b.ReportAllocs()
	const steps = 4096
	n := 0
	for n < b.N {
		e := NewEngine()
		e.Spawn("walker", func(p *Proc) {
			for i := 0; i < steps; i++ {
				p.Sleep(10)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		n += steps
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sleeps/sec")
}

// BenchmarkEngineYield measures Sleep(0) with no other work pending at the
// current time: one ring event and one park/dispatch round trip per step.
func BenchmarkEngineYield(b *testing.B) {
	b.ReportAllocs()
	const steps = 8192
	n := 0
	for n < b.N {
		e := NewEngine()
		e.Spawn("spinner", func(p *Proc) {
			for i := 0; i < steps; i++ {
				p.Sleep(0)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		n += steps
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "yields/sec")
}

// BenchmarkEngineSpawn measures one process's whole life: Spawn, first
// dispatch onto a pooled coroutine, one sleep, completion and the worker's
// return to the pool — the per-thread-block cost of every kernel launch.
// The 1 allocs/op result (the Proc itself) is a CI gate: a coroutine created
// per Spawn instead of taken from the pool costs a dozen allocations.
func BenchmarkEngineSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(10) }
	for i := 0; i < b.N; i++ {
		e.Spawn("tb", body)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "spawns/sec")
}

// BenchmarkEngineCondStorm measures semaphore recheck cost when one signal
// releases every waiter at once (the grid-barrier / kernel-join pattern):
// the whole waiter list is woken in FIFO order by a single recheck sweep.
func BenchmarkEngineCondStorm(b *testing.B) {
	b.ReportAllocs()
	const waiters = 256
	n := 0
	for n < b.N {
		e := NewEngine()
		sem := NewSemaphore(e, "storm")
		done := 0
		for i := 0; i < waiters; i++ {
			e.Spawn("w", func(p *Proc) {
				sem.WaitGE(p, 1)
				done++
			})
		}
		e.Spawn("producer", func(p *Proc) {
			p.Sleep(1)
			sem.Add(1)
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if done != waiters {
			b.Fatalf("woke %d of %d", done, waiters)
		}
		n += waiters
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "wakes/sec")
}

// BenchmarkResourceCounters measures Reserve with the full counter set
// engaged under a contended arrival pattern (two flows per free interval,
// so queue-delay, depth and idle-gap accounting all run every iteration).
// The 0 allocs/op result is a CI gate: resource introspection must stay
// free on the fabric's hot transfer paths.
func BenchmarkResourceCounters(b *testing.B) {
	b.ReportAllocs()
	r := NewResource("bench")
	joint := NewResource("joint")
	now := Time(0)
	for i := 0; i < b.N; i++ {
		// Two overlapping requests (the second queues), then a gap.
		r.Reserve(now, 100)
		r.Reserve(now+40, 100)
		ReserveJoint(now+60, 50, r, joint)
		now += 400
	}
	if r.Reservations() != uint64(3*b.N) {
		b.Fatalf("reservations = %d, want %d", r.Reservations(), 3*b.N)
	}
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "reserves/sec")
}

// BenchmarkEngineFeed measures a fed arrival stream, the serving driver's
// request arrivals: one op is one Feed entry firing, with runs of two
// entries at each time. The 0 allocs/op result is a CI gate: the cursor is
// the one allocation of a Feed call, and a fed entry allocates nothing.
func BenchmarkEngineFeed(b *testing.B) {
	b.ReportAllocs()
	const batch = 4096
	e := NewEngine()
	ts := make([]Time, batch)
	fired := 0
	fire := func(int) { fired++ }
	for n := 0; n < b.N; n += batch {
		for i := range ts {
			ts[i] = e.Now() + Time(i/2+1)
		}
		e.Feed(ts, fire)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if fired < b.N {
		b.Fatalf("fired %d of %d entries", fired, b.N)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "entries/sec")
}

// BenchmarkEngineTies measures timed wakes that tie, the shape of a
// collective's lockstep thread blocks: 64 processes, each sleeping a
// duration drawn from {100, 200, 300, 400} ns, so at any moment their
// pending wakes share a handful of timestamps. One op is one wake. The
// 0 allocs/op result is a CI gate: joining a chain of tied wakes must not
// allocate.
func BenchmarkEngineTies(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	steps := b.N/procs + 1
	e := NewEngine()
	for i := 0; i < procs; i++ {
		x := uint64(i)
		e.Spawn("tb", func(p *Proc) {
			for k := 0; k < steps; k++ {
				x = x*6364136223846793005 + 1442695040888963407
				p.Sleep(Duration(100 * (1 + x>>62)))
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(procs*steps)/b.Elapsed().Seconds(), "wakes/sec")
}
