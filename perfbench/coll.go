package main

// coll-sweep: Figures 7-9 in miniature. Two slices over 4 KB-32 MB: every
// MSCCL++ AllReduce/AllGather algorithm on H100 1n8g (switch data path
// included), the NCCL-sim ring and the DSL-lowered plans run through the
// executor; and on A100-40G 2n16g the hierarchical algorithms (proxy and NIC
// path) against NCCL-sim ring/tree and MSCCL-sim hier. Set-up builds one
// machine per case, prepares it and warms it once; a timed pass invokes every
// case once, in an order shuffled from the seed.

import (
	"fmt"
	"strconv"
	"strings"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// llSizeCap bounds the sizes LL-protocol and one-phase cases run at: they are
// never competitive above a few MB, which is where the paper's tuned
// baselines stop trying them too.
const llSizeCap = 4 << 20

// prepFn prepares one case on its communicator and returns the invocation
// and the algorithm's name.
type prepFn func(tr *tracer, c *collective.Comm, in, out []*mem.Buffer) (func() (sim.Duration, error), string, error)

// collSpec is one algorithm of a slice, run at every size in [min, max].
type collSpec struct {
	label    string // short name used in result keys
	gather   bool   // AllGather: inputs are 1/N shards of the size
	layer    string // span name of its timed invocation
	min, max int64
	prep     prepFn
}

type collCase struct {
	key, span string
	m         *machine.Machine
	run       func() (sim.Duration, error)
	name      string
}

type collSweep struct {
	sizes []int64
	rng   *serve.RNG
	cases []*collCase

	// Accumulated over traced passes.
	events       map[string]uint64 // by span name
	reservations map[string]uint64 // fabric counter group -> reservations
}

func newCollSweep(seed uint64, tiny bool) *collSweep {
	w := &collSweep{rng: serve.NewRNG(serve.Mix64(seed)), events: map[string]uint64{}, reservations: map[string]uint64{}}
	hi := int64(32 << 20)
	if tiny {
		hi = 64 << 10
	}
	for s := int64(4 << 10); s <= hi; s *= 2 {
		w.sizes = append(w.sizes, s)
	}
	return w
}

// collLayer names the span of a collective algorithm's invocation by the
// channel it drives: the NVLS switch, the proxy/NIC PortChannel path, or
// peer memory channels.
func collLayer(name string) string {
	switch {
	case strings.Contains(name, "Switch"):
		return "collective.switch.run"
	case strings.Contains(name, "Port"), strings.Contains(name, "2PH"):
		return "collective.port.run"
	default:
		return "collective.memchan.run"
	}
}

func isLL(name string) bool { return strings.Contains(name, "-LL") || strings.Contains(name, "1PA") }

// algoSpecs lists every entry of the MSCCL++ AllReduce and AllGather
// algorithm tables for env.
func algoSpecs(tr *tracer, env *topology.Env) []collSpec {
	sp := tr.begin("machine.New")
	m := machine.New(env)
	tr.end(sp)
	sp = tr.begin("collective.New")
	probe := collective.New(m)
	tr.end(sp)
	var out []collSpec
	add := func(algos []collective.Algorithm, gather bool) {
		for i, a := range algos {
			idx, name := i, a.Name()
			max := int64(1 << 62)
			if isLL(name) {
				max = llSizeCap
			}
			out = append(out, collSpec{label: strings.TrimPrefix(name, "mscclpp-"), gather: gather, layer: collLayer(name), max: max,
				prep: func(tr *tracer, c *collective.Comm, in, out []*mem.Buffer) (func() (sim.Duration, error), string, error) {
					var a collective.Algorithm
					if gather {
						a = c.AllGatherAlgorithms()[idx]
					} else {
						a = c.AllReduceAlgorithms()[idx]
					}
					sp := tr.begin("collective.Prepare")
					ex, err := a.Prepare(c, in, out)
					tr.end(sp)
					return execRun(c, ex), name, err
				}})
		}
	}
	add(probe.AllReduceAlgorithms(), false)
	add(probe.AllGatherAlgorithms(), true)
	return out
}

func execRun(c *collective.Comm, ex *collective.Exec) func() (sim.Duration, error) {
	return func() (sim.Duration, error) { return c.Run(ex) }
}

// baselineSpec wraps a baseline library's Prepare call.
func baselineSpec(label string, max int64, prep func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error)) collSpec {
	return collSpec{label: label, layer: "baseline.run", max: max,
		prep: func(tr *tracer, c *collective.Comm, in, out []*mem.Buffer) (func() (sim.Duration, error), string, error) {
			sp := tr.begin("baseline.Prepare")
			ex, err := prep(c, in, out)
			tr.end(sp)
			if err != nil {
				return nil, "", err
			}
			return execRun(c, ex), ex.Name, nil
		}}
}

func ncclRing(proto twosided.Proto) func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
	return func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, proto)
	}
}

func ncclTree(proto twosided.Proto) func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
	return func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, proto)
	}
}

func mscclHier(proto twosided.Proto) func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
	return func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, proto)
	}
}

// dslSpec lowers a DSL-authored AllReduce and binds the plan through the
// executor.
func dslSpec(label string, min, max int64, build func(ranks int, size int64, nTB int) (*dsl.Program, error), nTB func(size int64) int) collSpec {
	return collSpec{label: "dsl-" + label, layer: "executor.run", min: min, max: max,
		prep: func(tr *tracer, c *collective.Comm, in, out []*mem.Buffer) (func() (sim.Duration, error), string, error) {
			size := in[0].Size()
			sp := tr.begin("dsl.Build")
			prog, err := build(c.Ranks(), size, nTB(size))
			tr.end(sp)
			if err != nil {
				return nil, "", err
			}
			sp = tr.begin("dsl.Lower")
			pl, err := prog.Lower()
			tr.end(sp)
			if err != nil {
				return nil, "", err
			}
			sp = tr.begin("executor.New")
			inst, err := executor.New(c.C, pl, in, out)
			tr.end(sp)
			if err != nil {
				return nil, "", err
			}
			m := c.M
			return func() (sim.Duration, error) {
				start := m.Engine.Now()
				inst.Launch()
				err := m.Run()
				return m.Engine.Now() - start, err
			}, pl.Name, nil
		}}
}

func (w *collSweep) setup(tr *tracer, st *steps) error {
	w.cases = nil
	h100 := topology.H100(1)
	h100Specs := append(algoSpecs(tr, h100),
		baselineSpec("nccl-Ring-LL", llSizeCap, ncclRing(twosided.ProtoLL)),
		baselineSpec("nccl-Ring-Simple", 1<<62, ncclRing(twosided.ProtoSimple)),
		dslSpec("1PA", 0, 64<<10, dsl.BuildAllReduce1PA, func(int64) int { return 2 }),
		dslSpec("2PA-HB", 1<<20, 1<<62, dsl.BuildAllReduce2PAHB, func(s int64) int {
			if s >= 16<<20 {
				return 8
			}
			return 4
		}),
	)
	a100 := topology.A100_40G(2)
	a100Specs := append(algoSpecs(tr, a100),
		baselineSpec("nccl-Ring-LL", llSizeCap, ncclRing(twosided.ProtoLL)),
		baselineSpec("nccl-Ring-Simple", 1<<62, ncclRing(twosided.ProtoSimple)),
		baselineSpec("nccl-Tree-LL", llSizeCap, ncclTree(twosided.ProtoLL)),
		baselineSpec("nccl-Tree-Simple", llSizeCap, ncclTree(twosided.ProtoSimple)),
		baselineSpec("msccl-Hier-LL", llSizeCap, mscclHier(twosided.ProtoLL)),
		baselineSpec("msccl-Hier-Simple", 1<<62, mscclHier(twosided.ProtoSimple)),
	)
	for _, sl := range []struct {
		name  string
		env   *topology.Env
		specs []collSpec
	}{{"h100-1n8g", h100, h100Specs}, {"a100-2n16g", a100, a100Specs}} {
		for _, spec := range sl.specs {
			for _, size := range w.sizes {
				if size < spec.min || size > spec.max {
					continue
				}
				if err := w.addCase(tr, sl.name, sl.env, spec, size); err != nil {
					return err
				}
				st.done(len(w.cases) - 1)
			}
		}
	}
	return nil
}

// addCase builds, prepares and warms one (algorithm, size) case on a
// machine of its own.
func (w *collSweep) addCase(tr *tracer, slice string, env *topology.Env, spec collSpec, size int64) error {
	sp := tr.begin("machine.New")
	m := machine.New(env)
	tr.end(sp)
	m.MaterializeLimit = 0 // timing-only buffers, as in the paper sweeps
	sp = tr.begin("collective.New")
	c := collective.New(m)
	tr.end(sp)
	inSize := size
	if spec.gather {
		inSize = size / int64(c.Ranks())
	}
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := range in {
		sp = tr.begin("machine.Alloc")
		in[r] = m.Alloc(r, "in", inSize)
		out[r] = m.Alloc(r, "out", size)
		tr.end(sp)
	}
	op := "allreduce"
	if spec.gather {
		op = "allgather"
	}
	key := slice + "/" + op + "/" + spec.label + "/" + strconv.FormatInt(size, 10)
	run, name, err := spec.prep(tr, c, in, out)
	if err != nil {
		return fmt.Errorf("%s: prepare: %w", key, err)
	}
	cs := &collCase{key: key, span: spec.layer, m: m, run: run, name: name}
	sp = tr.begin(cs.span)
	_, err = run()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: warm-up: %w", key, err)
	}
	w.cases = append(w.cases, cs)
	return nil
}

// pass invokes every case once in a seed-shuffled order; an invocation that
// errs or whose virtual duration or algorithm differs from the reference is
// a failed op.
func (w *collSweep) pass(tr *tracer, st *steps, chk *checker) (attempted, failed int) {
	order := make([]int, len(w.cases))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := w.rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	traced := tr != nil && tr.on
	var before map[string]uint64
	if traced {
		before = w.fabricReservations()
	}
	for _, i := range order {
		c := w.cases[i]
		var ev uint64
		if traced {
			ev = c.m.Engine.EventsRun()
		}
		tr.setOp(int64(i))
		sp := tr.begin(c.span)
		d, err := c.run()
		tr.end(sp)
		if traced {
			w.events[c.span] += c.m.Engine.EventsRun() - ev
		}
		if err != nil || !chk.check(c.key, c.name+" "+strconv.FormatInt(d, 10)) {
			failed++
		}
		st.done(i)
	}
	tr.setOp(-1)
	if traced {
		for g, v := range w.fabricReservations() {
			w.reservations[g] += v - before[g]
		}
	}
	return len(order), failed
}

// fabricReservations totals the fabric's reservation counters over every
// case's machine, with the NIC send and receive queues folded into "nic".
func (w *collSweep) fabricReservations() map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range w.cases {
		for _, g := range c.m.Counters() {
			name := g.Name
			if strings.HasPrefix(name, "nic") {
				name = "nic"
			}
			for _, s := range g.Stats {
				out[name] += s.Reservations
			}
		}
	}
	return out
}

func (w *collSweep) layerMetrics(in layerInputs, out map[string]float64) {
	n := float64(in.passes)
	var evAll, evOther uint64
	for name, ev := range w.events {
		evAll += ev
		if name != "collective.switch.run" {
			evOther += ev
		}
	}
	out["sim.events"] = float64(evAll) / n
	if evOther > 0 {
		var ns int64
		for name, v := range in.passSelf {
			if name != "collective.switch.run" && strings.HasSuffix(name, ".run") {
				ns += v
			}
		}
		out["sim.ns_per_event"] = float64(ns) / float64(evOther)
	}
	out["collective.switch.run_s"] = float64(in.passSelf["collective.switch.run"]) / 1e9 / n
	out["collective.switch.runs"] = float64(in.passCalls["collective.switch.run"]) / n
	out["collective.switch.events"] = float64(w.events["collective.switch.run"]) / n
	out["collective.switch.share"] = float64(in.passSelf["collective.switch.run"]) / float64(in.passWall)
	out["collective.memchan.run_s"] = float64(in.passSelf["collective.memchan.run"]) / 1e9 / n
	out["collective.port.run_s"] = float64(in.passSelf["collective.port.run"]) / 1e9 / n
	out["baseline.run_s"] = float64(in.passSelf["baseline.run"]) / 1e9 / n
	out["executor.run_s"] = float64(in.passSelf["executor.run"]) / 1e9 / n
	out["collective.prepare_s"] = float64(in.setupSelf["collective.Prepare"]) / 1e9
	out["dsl.lower_s"] = float64(sumPrefix(in.setupSelf, "dsl.")) / 1e9
	out["fabric.switch.reservations"] = float64(w.reservations["switch"]) / n
	out["fabric.nic.reservations"] = float64(w.reservations["nic"]) / n
	out["fabric.dma.reservations"] = float64(w.reservations["dma"]) / n
}

// guards fails the traced run if the sweep stopped exercising the switch
// data path.
func (w *collSweep) guards(m map[string]float64) []string {
	if m["collective.switch.runs"] <= 0 {
		return []string{"coll-sweep: no SwitchChannel invocation in the timed phase"}
	}
	return nil
}
