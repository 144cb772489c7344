package collective

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Property: every single-node AllReduce algorithm produces the bit-exact
// same (numerically summed) result for arbitrary aligned sizes and input
// patterns, across all three vendor environments.
func TestAllReduceAlgorithmsProperty(t *testing.T) {
	envs := []func(int) *topology.Env{topology.A100_40G, topology.H100, topology.MI300x}
	f := func(sizeUnits uint8, seed uint8, envIdx uint8, algoIdx uint8) bool {
		// size: multiple of 64 bytes (4*8*2 alignment for halves), 64B-64KB.
		size := int64(sizeUnits%64+1) * 1024
		env := envs[int(envIdx)%len(envs)](1)
		m := machine.New(env)
		m.MaterializeLimit = 1 << 40
		c := New(m)
		algos := []Algorithm{
			&AllReduce1PA{}, &AllReduce1PAHB{}, &AllReduce2PALL{},
			&AllReduce2PAHB{}, &AllReduce2PR{},
		}
		if env.HasMulticast {
			algos = append(algos, &AllReduce2PASwitch{})
		}
		algo := algos[int(algoIdx)%len(algos)]
		n := c.Ranks()
		in := make([]*mem.Buffer, n)
		out := make([]*mem.Buffer, n)
		for r := 0; r < n; r++ {
			in[r] = m.Alloc(r, "in", size)
			out[r] = m.Alloc(r, "out", size)
		}
		pat := func(r int, i int64) float32 {
			return float32((int64(seed)+int64(r)*7+i)%17) * 0.5
		}
		FillInputs(in, pat)
		ex, err := algo.Prepare(c, in, out)
		if err != nil {
			t.Logf("%s size=%d: %v", algo.Name(), size, err)
			return false
		}
		if _, err := c.Run(ex); err != nil {
			t.Logf("%s size=%d: %v", algo.Name(), size, err)
			return false
		}
		if err := CheckAllReduce(out, pat, 1e-4); err != nil {
			t.Logf("%s size=%d: %v", algo.Name(), size, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated invocations of the same prepared Exec keep producing
// correct results in the same virtual time and the same number of engine
// events (channel/semaphore/flag state and the prepared kernel are reusable,
// and no cross-run state leaks into timing or leaves events behind). Every measurement
// helper times one Run of a fresh Exec on the strength of this, so it covers
// every AllReduce and AllGather algorithm a helper can pick (plus the
// vLLM-style one-phase HB kernel) on each environment at 2-3 sizes. LL and
// one-phase algorithms are latency kernels and stop at 4 MB. Inputs up to
// 512 KB carry real data and are checked after every run; larger ones are
// virtual (timing only), as in the figure sweeps.
func TestRepeatedInvocationProperty(t *testing.T) {
	const checkLimit = 512 << 10
	envs := []struct {
		name string
		env  func() *topology.Env
	}{
		{"A100-40G-1n8g", func() *topology.Env { return topology.A100_40G(1) }},
		{"H100-1n8g", func() *topology.Env { return topology.H100(1) }},
		{"A100-40G-2n16g", func() *topology.Env { return topology.A100_40G(2) }},
	}
	for _, e := range envs {
		probe := New(machine.New(e.env()))
		n := int64(probe.Ranks())
		type kind struct {
			algos  []Algorithm
			sizes  []int64 // AllReduce: buffer bytes; AllGather: shard bytes
			gather bool
		}
		allReduce := probe.AllReduceAlgorithms()
		if probe.M.Env.Nodes == 1 {
			allReduce = append(allReduce, &AllReduce1PAHB{})
		}
		for _, k := range []kind{
			{allReduce, []int64{32 << 10, 512 << 10, 16 << 20}, false},
			{probe.AllGatherAlgorithms(), []int64{4 << 10, 64 << 10, 1 << 20}, true},
		} {
			for _, algo := range k.algos {
				name := algo.Name()
				latency := strings.HasSuffix(name, "-LL") || strings.Contains(name, "1PA")
				for _, size := range k.sizes {
					inSize, outSize := size, size
					if k.gather {
						outSize = size * n
					}
					if latency && outSize > 4<<20 {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%d", e.name, name, size), func(t *testing.T) {
						check := inSize <= checkLimit
						m := machine.New(e.env())
						m.MaterializeLimit = 0
						if check {
							m.MaterializeLimit = 1 << 40
						}
						c := New(m)
						in := make([]*mem.Buffer, c.Ranks())
						out := make([]*mem.Buffer, c.Ranks())
						for r := range in {
							in[r] = m.Alloc(r, "in", inSize)
							out[r] = m.Alloc(r, "out", outSize)
						}
						FillInputs(in, pattern)
						ex, err := algo.Prepare(c, in, out)
						if err != nil {
							t.Fatalf("prepare: %v", err)
						}
						var first sim.Duration
						var firstEvents uint64
						for i := 0; i < 3; i++ {
							before := m.Engine.EventsRun()
							d, err := c.Run(ex)
							if err != nil {
								t.Fatalf("run %d: %v", i+1, err)
							}
							events := m.Engine.EventsRun() - before
							if i == 0 {
								first, firstEvents = d, events
							} else if d != first || events != firstEvents {
								t.Fatalf("run %d took %d ns in %d events, first run %d ns in %d events",
									i+1, d, events, first, firstEvents)
							}
							if !check {
								continue
							}
							if k.gather {
								err = CheckAllGather(out, size, pattern, 0)
							} else {
								err = CheckAllReduce(out, pattern, 1e-4)
							}
							if err != nil {
								t.Fatalf("run %d: %v", i+1, err)
							}
						}
					})
				}
			}
		}
	}
}

// Property: the simulation is deterministic — identical configurations give
// identical virtual durations.
func TestDeterminismProperty(t *testing.T) {
	f := func(sizeUnits uint8) bool {
		size := int64(sizeUnits%32+1) * 4096
		run := func() int64 {
			m := machine.New(topology.H100(1))
			m.MaterializeLimit = 0
			c := New(m)
			in := make([]*mem.Buffer, c.Ranks())
			out := make([]*mem.Buffer, c.Ranks())
			for r := 0; r < c.Ranks(); r++ {
				in[r] = m.Alloc(r, "in", size)
				out[r] = m.Alloc(r, "out", size)
			}
			ex, err := (&AllReduce2PAHB{}).Prepare(c, in, out)
			if err != nil {
				return -1
			}
			d, err := c.Run(ex)
			if err != nil {
				return -1
			}
			return d
		}
		a, b := run(), run()
		return a > 0 && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastFlat(t *testing.T) {
	for _, env := range []*topology.Env{topology.A100_40G(1), topology.H100(1)} {
		m := machine.New(env)
		m.MaterializeLimit = 1 << 40
		c := New(m)
		const size = 64 << 10
		in := make([]*mem.Buffer, c.Ranks())
		out := make([]*mem.Buffer, c.Ranks())
		for r := 0; r < c.Ranks(); r++ {
			in[r] = m.Alloc(r, "in", size)
			out[r] = m.Alloc(r, "out", size)
		}
		const root = 3
		in[root].FillPattern(func(i int64) float32 { return float32(i % 23) })
		d, err := c.Broadcast(in, out, root)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("duration %d", d)
		}
		for r := 0; r < c.Ranks(); r++ {
			if err := out[r].EqualFloat32(func(i int64) float32 { return float32(i % 23) }, 0); err != nil {
				t.Fatalf("%s rank %d: %v", env.Name, r, err)
			}
		}
	}
}

func TestBroadcastSwitch(t *testing.T) {
	m := machine.New(topology.H100(1))
	m.MaterializeLimit = 1 << 40
	c := New(m)
	const size = 2 << 20
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := 0; r < c.Ranks(); r++ {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	in[0].FillPattern(func(i int64) float32 { return float32(i%13) - 5 })
	ex, err := (&BroadcastSwitch{Root: 0}).Prepare(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ex); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.Ranks(); r++ {
		if err := out[r].EqualFloat32(func(i int64) float32 { return float32(i%13) - 5 }, 0); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBroadcastInvalidRoot(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	c := New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := 0; r < c.Ranks(); r++ {
		in[r] = m.Alloc(r, "in", 4096)
		out[r] = m.Alloc(r, "out", 4096)
	}
	if _, err := (&BroadcastFlat{Root: 99}).Prepare(c, in, out); err == nil {
		t.Fatal("expected root-range error")
	}
}

// TestRunAfterDeadlockPanics pins Comm.Run on an Exec whose previous
// invocation deadlocked: its blocked thread block is still live, so the
// relaunch panics naming it before anything is scheduled, and no block of
// either invocation runs.
func TestRunAfterDeadlockPanics(t *testing.T) {
	m := machine.New(topology.H100(1))
	c := New(m)
	never := sim.NewSemaphore(m.Engine, "never")
	runs := 0
	ex := NewExec("stuck", m.Kernel("stuck", 2, func(k *machine.Kernel, r int) {
		runs++
		if r == 3 && k.Block == 1 {
			never.WaitGE(k.P, 1)
		}
	}).Start)
	if _, err := c.Run(ex); err == nil || !strings.Contains(err.Error(), "stuck/gpu3/tb1 (semaphore never)") {
		t.Fatalf("first Run: %v, want a deadlock naming stuck/gpu3/tb1", err)
	}
	before, ran := m.Engine.EventsRun(), runs
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "stuck/gpu3/tb1") {
			t.Fatalf("second Run panicked with %q, want a panic naming stuck/gpu3/tb1", msg)
		}
		if m.Engine.EventsRun() != before || runs != ran {
			t.Fatalf("the refused Run ran %d events and %d blocks", m.Engine.EventsRun()-before, runs-ran)
		}
	}()
	c.Run(ex)
}
