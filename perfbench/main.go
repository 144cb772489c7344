// Command perfbench is the repository benchmark: it times the simulator's
// host cost on three workloads and checks every virtual-time result.
//
//	perfbench --workload coll-sweep|serve-diurnal|serve-paged --seed N --seconds S --trace 0|1
//
// A run sets the workload up several times (set-up time is reported as the
// median), then repeats timed passes — one fixed unit of work each — for the
// given seconds, single-goroutine, and reports medians over the passes. With
// --trace 1 it instead sets up once with every call into the program spanned,
// alternates untraced and traced passes, and reports the per-layer metrics.
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// workload is one benchmark input set.
type workload interface {
	// setup builds everything the timed phase needs, marking its numbered
	// steps on st.
	setup(tr *tracer, st *steps) error
	// pass runs one fixed unit of timed work, checking every virtual result
	// and marking each op on st.
	pass(tr *tracer, st *steps, chk *checker) (attempted, failed int)
	// layerMetrics derives the workload's per-layer metrics.
	layerMetrics(in layerInputs, out map[string]float64)
	// guards returns a message per mechanism the traced run did not exercise
	// as the workload intends.
	guards(m map[string]float64) []string
}

var workloads = map[string]func(seed uint64, tiny bool) workload{
	"coll-sweep":    func(seed uint64, tiny bool) workload { return newCollSweep(seed, tiny) },
	"serve-diurnal": func(seed uint64, tiny bool) workload { return newServeBench(diurnalShape(tiny), seed) },
	"serve-paged":   func(seed uint64, tiny bool) workload { return newServeBench(pagedShape(tiny), seed) },
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"peak_mem_mb", "MB"}, {"alloc_mb", "MB"}, {"allocs_m", "millions"},
}

var perLayer = []metricDef{
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"collective.switch.run_s", "s"}, {"collective.switch.runs", "count"},
	{"collective.switch.events", "count"}, {"collective.switch.share", "fraction"},
	{"collective.memchan.run_s", "s"}, {"collective.port.run_s", "s"},
	{"baseline.run_s", "s"}, {"executor.run_s", "s"},
	{"collective.prepare_s", "s"}, {"dsl.lower_s", "s"},
	{"fabric.switch.reservations", "count"}, {"fabric.nic.reservations", "count"},
	{"fabric.dma.reservations", "count"},
	{"inference.fill_s", "s"}, {"inference.fill_sizes", "count"}, {"inference.fill_share", "fraction"},
	{"inference.ar_calls", "count"}, {"inference.ar_s", "s"},
	{"inference.ar_misses", "count"}, {"inference.ar_hit_ratio", "fraction"},
	{"serve.run_s", "s"}, {"serve.self_s", "s"},
	{"serve.iterations", "count"}, {"serve.ns_per_iteration", "ns"},
	{"serve.preemptions", "count"}, {"serve.swaps", "count"},
	{"serve.recomputes", "count"}, {"serve.swap_gb", "GB"},
	{"serve.workload_gen_s", "s"}, {"serve.merge_s", "s"}, {"serve.summarize_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.coverage", "fraction"}, {"trace.overhead_s", "s"},
}

// setupReps is how many times an untraced run sets up; setup_s is the median.
const setupReps = 3

// minPasses is the fewest timed passes a run makes, whatever --seconds says.
const minPasses = 2

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	traceOut string
	record   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "coll-sweep, serve-diurnal or serve-paged")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in host seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (smoke tests)")
	fs.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-<seed>.json)")
	fs.StringVar(&o.record, "record", "", "write the observed virtual results into this expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q or --trace %d\n", o.workload, trace)
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", o.workload, o.seed)
	}
	res, chk, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range chk.mismatches {
		fmt.Fprintf(stderr, "perfbench: mismatch %s\n", m)
	}
	fmt.Fprintf(stderr, "%s seed %d: digest %s\n", o.workload, o.seed, chk.digest())
	if o.record != "" {
		if err := record(o.record, o.workload, chk.seen); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// execute runs one invocation and returns its result and the checker
// holding every virtual result observed.
func execute(o options, log io.Writer) (*result, *checker, error) {
	var expected map[string]string
	if !o.tiny {
		var err error
		if expected, err = loadExpected(o.workload); err != nil {
			return nil, nil, err
		}
	}
	chk := newChecker(expected)
	if o.trace {
		res, err := traced(o, chk, log)
		return res, chk, err
	}
	res, err := untraced(o, chk, log)
	return res, chk, err
}

// untraced measures the end-to-end metrics.
func untraced(o options, chk *checker, log io.Writer) (*result, error) {
	mk := workloads[o.workload]
	var w workload
	var setups []float64
	setupSteps := &steps{}
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		w = mk(o.seed, o.tiny)
		t0 := time.Now()
		setupSteps.begin()
		if err := w.setup(nil, setupSteps); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	defer heap.close()

	res := &result{Metrics: map[string]metricValue{}}
	var walls, peaks, allocMB, allocsM []float64
	passSteps := &steps{}
	opsPerPass := 0
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds() < o.seconds {
		b0, n0 := allocCounters()
		heap.reset()
		t0 := time.Now()
		passSteps.begin()
		a, f := w.pass(nil, passSteps, chk)
		wall := time.Since(t0).Seconds()
		peak := heap.take()
		b1, n1 := allocCounters()
		opsPerPass = a
		res.Attempted += a
		res.Failed += f
		walls = append(walls, wall)
		peaks = append(peaks, float64(peak)/1e6)
		allocMB = append(allocMB, float64(b1-b0)/1e6)
		allocsM = append(allocsM, float64(n1-n0)/1e6)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "%s: set-ups %.3f s, passes %.3f s\n", o.workload, setups, walls)
	// A pass's and a set-up's host time is the sum over their steps of each
	// step's median across repetitions: a burst of interference on a shared
	// host then costs one sample of one step, not a whole repetition.
	wall := passSteps.total()
	for _, m := range []struct {
		def   metricDef
		value float64
	}{
		{endToEnd[0], wall}, {endToEnd[1], setupSteps.total()}, {endToEnd[2], float64(opsPerPass) / wall},
		{endToEnd[3], median(peaks)}, {endToEnd[4], median(allocMB)}, {endToEnd[5], median(allocsM)},
	} {
		res.Metrics[m.def.name] = metricValue{m.value, m.def.unit}
	}
	return res, nil
}

// layerInputs is what a traced run hands a workload to derive its
// per-layer metrics from. Pass quantities are totals over the traced passes.
type layerInputs struct {
	passes                  int
	setupWall, passWall     int64
	setupSelf, passSelf     map[string]int64
	setupCalls, passCalls   map[string]int
	arCalls, arNs, arMisses int64
}

// traced measures the per-layer metrics: one spanned set-up, then untraced
// and traced passes alternating until the seconds are spent.
func traced(o options, chk *checker, log io.Writer) (*result, error) {
	w := workloads[o.workload](o.seed, o.tiny)
	tr := newTracer()
	t0 := time.Now()
	if err := w.setup(tr, nil); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	in := layerInputs{setupWall: int64(time.Since(t0)), setupSelf: tr.selfTimes(0), setupCalls: tr.calls(0),
		passSelf: map[string]int64{}, passCalls: map[string]int{}}
	runtime.GC()

	res := &result{Metrics: map[string]metricValue{}}
	var plain, spanned []float64
	var gc0, gc1 runtime.MemStats
	var gcCycles uint32
	var gcPause uint64
	start := time.Now()
	for len(spanned) == 0 || time.Since(start).Seconds() < o.seconds {
		tr.on = false
		t := time.Now()
		a, f := w.pass(tr, nil, chk)
		plain = append(plain, time.Since(t).Seconds())
		res.Attempted += a
		res.Failed += f

		tr.on = true
		mark := tr.mark()
		runtime.ReadMemStats(&gc0)
		t = time.Now()
		a, f = w.pass(tr, nil, chk)
		wall := time.Since(t)
		runtime.ReadMemStats(&gc1)
		spanned = append(spanned, wall.Seconds())
		res.Attempted += a
		res.Failed += f
		in.passes++
		in.passWall += int64(wall)
		for k, v := range tr.selfTimes(mark) {
			in.passSelf[k] += v
		}
		for k, v := range tr.calls(mark) {
			in.passCalls[k] += v
		}
		gcCycles += gc1.NumGC - gc0.NumGC
		gcPause += gc1.PauseTotalNs - gc0.PauseTotalNs
	}
	in.arCalls, in.arNs, in.arMisses = tr.arCalls, tr.arNs, tr.arMisses

	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.name] = 0
	}
	w.layerMetrics(in, vals)
	n := float64(in.passes)
	vals["go.gc_cycles"] = float64(gcCycles) / n
	vals["go.gc_pause_ms"] = float64(gcPause) / 1e6 / n
	layers := byLayer(in.passSelf)
	var covered int64
	for _, v := range layers {
		covered += v
	}
	vals["trace.coverage"] = float64(covered+in.arNs) / float64(in.passWall)
	overhead := median(spanned) - median(plain)
	vals["trace.overhead_s"] = overhead
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}

	fmt.Fprintf(log, "%s traced set-up: wall %.3f s\n", o.workload, float64(in.setupWall)/1e9)
	for layer, v := range byLayer(in.setupSelf) {
		fmt.Fprintf(log, "  %-12s self %8.3f s  %5.1f%%\n", layer, float64(v)/1e9, 100*float64(v)/float64(in.setupWall))
	}
	report(log, o.workload, scaleMap(layers, 1/n), int64(float64(in.arNs)/n), int64(float64(in.passWall)/n), int64(overhead*1e9))
	guards := w.guards(vals)
	for _, g := range guards {
		fmt.Fprintf(log, "perfbench: guard failed: %s\n", g)
	}
	res.Correct = res.Failed == 0 && len(guards) == 0
	if err := tr.write(o.traceOut); err != nil {
		return nil, err
	}
	return res, nil
}

func scaleMap(m map[string]int64, f float64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = int64(float64(v) * f)
	}
	return out
}

// steps records the host time of each numbered step of a phase, over the
// phase's repetitions. A nil *steps records nothing.
type steps struct {
	times [][]float64 // [step][repetition], seconds
	last  time.Time
}

// begin starts a repetition: the first step is timed from here.
func (s *steps) begin() { s.last = time.Now() }

// done ends step i, which began where the previous step ended.
func (s *steps) done(i int) {
	if s == nil {
		return
	}
	now := time.Now()
	for len(s.times) <= i {
		s.times = append(s.times, nil)
	}
	s.times[i] = append(s.times[i], now.Sub(s.last).Seconds())
	s.last = now
}

// total sums each step's median over its repetitions.
func (s *steps) total() float64 {
	var t float64
	for _, v := range s.times {
		if len(v) > 0 {
			t += median(v)
		}
	}
	return t
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// allocCounters returns the cumulative bytes and objects allocated on the heap.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak of heap memory occupied by objects, sampled
// on a ticker by a goroutine of its own.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapInUse()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset starts a new peak window at the current heap size.
func (h *heapSampler) reset() { h.peak.Store(heapInUse()) }

// take returns the peak since reset.
func (h *heapSampler) take() uint64 {
	h.observe()
	return h.peak.Load()
}

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// record merges a workload's observed virtual results into the expected
// file at path.
func record(path, workload string, seen map[string]string) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	all[workload] = seen
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
