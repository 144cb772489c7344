package main

// serve-diurnal and serve-paged: serve-planetary's cell geometry at a
// smaller scale. Each cell is one RunRouted call — 3 Llama3-70B TP=8 replicas
// on A100-80G behind JSQ — over a diurnal, two-tier, prefix-grouped request
// stream whose seeds derive from the workload seed. serve-diurnal reserves
// whole-request KV from an ample 4 GiB budget; serve-paged pages 16-token
// blocks out of a ~320 MiB budget its diurnal peak overruns, so cells
// preempt (swap or recompute) at every peak and drain in every trough.
// Set-up generates the cells and fills the AllReduce pricing cache for every
// token count an iteration or a recompute-cost estimate can price, so the
// timed phase never misses it.

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"mscclpp/internal/inference"
	"mscclpp/internal/serve"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Objectives as in serve-planetary: the interactive tier (priority 0) holds
// the default SLO, the batch tier a relaxed one.
var (
	interactiveSLO = serve.SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 100 * sim.Millisecond}
	tierSLOs       = map[int]serve.SLO{1: {MaxTTFT: 20 * sim.Second, MaxTPOT: 400 * sim.Millisecond}}
)

// serveShape is one serve workload's geometry.
type serveShape struct {
	paged             bool
	cells, perCell    int
	peak, trough      float64 // cluster req/s at the diurnal peak; trough as a fraction of it
	period            sim.Duration
	promptMed, outMed float64
	promptMax, outMax int
	kvBytes           int64
	maxBatch, chunk   int
	prefixGroups      int
	prefixFrac        float64
	prefixTokens      int
	interactiveFrac   float64
	replicas          int
}

func diurnalShape(tiny bool) serveShape {
	s := serveShape{cells: 8, perCell: 40000, peak: 24, trough: 0.25, period: 600 * sim.Second,
		promptMed: 384, outMed: 48, promptMax: 1024, outMax: 128, kvBytes: 4 << 30,
		maxBatch: 32, chunk: 512, prefixGroups: 12, prefixFrac: 0.5, prefixTokens: 128,
		interactiveFrac: 0.7, replicas: 3}
	if tiny {
		s.cells, s.perCell, s.maxBatch, s.chunk, s.promptMax = 2, 200, 4, 32, 96
	}
	return s
}

func pagedShape(tiny bool) serveShape {
	s := diurnalShape(tiny)
	s.paged = true
	s.perCell = 24000
	s.kvBytes = 320 << 20
	s.peak = 40
	s.period = 300 * sim.Second
	s.promptMed, s.promptMax, s.outMed, s.outMax = 256, 448, 64, 96
	if tiny {
		s.perCell, s.kvBytes = 200, 6<<20
		s.promptMax, s.outMax = 64, 32
	}
	return s
}

type serveBench struct {
	shape serveShape
	seed  uint64
	cells []serve.Workload
	timer *inference.ARTimer
	// fillTokens is the largest token count whose AllReduce set-up priced.
	fillTokens int

	// Accumulated over traced passes.
	iterations, preemptions, swaps, recomputes int64
	swapBytes                                  int64
	cellsWithoutPreemption                     int
}

func newServeBench(shape serveShape, seed uint64) *serveBench {
	return &serveBench{shape: shape, seed: seed}
}

// msgPerToken is the AllReduce message of one token's activations (bf16).
func (w *serveBench) msgPerToken() int64 { return int64(inference.Llama3x70B(8).Hidden) * 2 }

func (w *serveBench) config(ar func(int64) sim.Duration) serve.Config {
	c := serve.Config{
		Env:             topology.A100_80G(1),
		Model:           inference.Llama3x70B(8),
		AR:              ar,
		MaxBatch:        w.shape.maxBatch,
		KVCapacityBytes: w.shape.kvBytes,
		ChunkTokens:     w.shape.chunk,
		Metrics:         serve.MetricsStream,
		SLO:             interactiveSLO,
		TierSLOs:        tierSLOs,
	}
	if w.shape.paged {
		c.KVPolicy = serve.KVPaged
		c.BlockTokens = 16
		c.Preempt = serve.PreemptAuto
	}
	return c
}

// cellSeed derives the seed of one generator of one cell.
func (w *serveBench) cellSeed(cell, gen int) uint64 {
	return serve.Mix64(w.seed*1_000_003 + uint64(cell)*16 + uint64(gen))
}

// fillStep is how many token counts one timed set-up step prices.
const fillStep = 16

func (w *serveBench) setup(tr *tracer, st *steps) error {
	s := w.shape
	w.cells = make([]serve.Workload, s.cells)
	for i := range w.cells {
		sp := tr.begin("serve.Diurnal")
		wl := serve.Diurnal(w.cellSeed(i, 0), s.perCell, s.peak, s.trough, s.period,
			serve.LogNormalLen(s.promptMed, 0.6, s.promptMax), serve.LogNormalLen(s.outMed, 0.5, s.outMax))
		tr.end(sp)
		sp = tr.begin("serve.WithPriorities")
		wl = serve.WithPriorities(wl, w.cellSeed(i, 1), s.interactiveFrac)
		tr.end(sp)
		sp = tr.begin("serve.WithPrefixGroups")
		wl = serve.WithPrefixGroups(wl, w.cellSeed(i, 2), s.prefixGroups, s.prefixFrac, s.prefixTokens)
		tr.end(sp)
		w.cells[i] = wl
		st.done(i)
	}
	sp := tr.begin("inference.NewARTimer")
	w.timer = inference.NewARTimer(func() *topology.Env { return topology.A100_80G(1) }, inference.LibMSCCLPP)
	tr.end(sp)
	// Iterations price prefill chunks of up to ChunkTokens tokens and decode
	// batches of up to MaxBatch; a paged replica's preemption crossover also
	// prices re-prefilling a whole resident context.
	w.fillTokens = s.maxBatch + s.chunk
	if s.paged && s.promptMax+s.outMax > w.fillTokens {
		w.fillTokens = s.promptMax + s.outMax
	}
	for tok := 1; tok <= w.fillTokens; tok++ {
		sp := tr.begin("inference.fill")
		w.timer.Time(int64(tok) * w.msgPerToken())
		tr.end(sp)
		if tok%fillStep == 0 || tok == w.fillTokens {
			st.done(s.cells + (tok-1)/fillStep)
		}
	}
	return nil
}

// ar returns the pricing function of the timed phase: the warm timer itself,
// or, when traced, a wrapper counting and timing every call and the calls
// set-up did not price.
func (w *serveBench) ar(tr *tracer) func(int64) sim.Duration {
	if tr == nil || !tr.on {
		return w.timer.Time
	}
	per := w.msgPerToken()
	return func(msg int64) sim.Duration {
		t0 := time.Now()
		d := w.timer.Time(msg)
		tr.arNs += int64(time.Since(t0))
		tr.arCalls++
		if msg%per != 0 || msg/per < 1 || msg/per > int64(w.fillTokens) {
			tr.arMisses++
		}
		return d
	}
}

// cellValue folds one cell's virtual outcome into a digest: the tiered
// summary and the iteration, preemption, swap, recompute and rejection
// counts.
func cellValue(s serve.Summary, r *serve.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|%d|%d|%d|%d|%d", s, r.Iterations, r.Preemptions, r.Swaps, r.Recomputes, r.SwapBytes, r.Rejected)
	return fmt.Sprintf("%016x", h.Sum64())
}

// pass serves every cell, merges them planet-wide and summarizes. A request
// counts as failed when its cell errs or the cell's digest differs from the
// reference; a differing planet-wide digest fails every request.
func (w *serveBench) pass(tr *tracer, st *steps, chk *checker) (attempted, failed int) {
	cfg := w.config(w.ar(tr))
	traced := tr != nil && tr.on
	parts := make([]*serve.Result, 0, len(w.cells))
	prefix := "seed" + strconv.FormatUint(w.seed, 10) + "/"
	for i, wl := range w.cells {
		n := len(wl.Requests)
		attempted += n
		tr.setOp(int64(i))
		sp := tr.begin("serve.RunRouted")
		res, err := serve.RunRouted(serve.RouterConfig{Replicas: w.shape.replicas, Policy: serve.NewJSQ(), Replica: cfg}, wl)
		tr.end(sp)
		if err != nil {
			failed += n
			st.done(i)
			continue
		}
		sp = tr.begin("serve.SummarizeTiered")
		s := res.Merged.SummarizeTiered(interactiveSLO, tierSLOs)
		tr.end(sp)
		if !chk.check(prefix+"cell"+strconv.Itoa(i), cellValue(s, res.Merged)) {
			failed += n
		}
		parts = append(parts, res.Merged)
		st.done(i)
		if traced {
			m := res.Merged
			w.iterations += int64(m.Iterations)
			w.preemptions += int64(m.Preemptions)
			w.swaps += int64(m.Swaps)
			w.recomputes += int64(m.Recomputes)
			w.swapBytes += m.SwapBytes
			if m.Preemptions == 0 {
				w.cellsWithoutPreemption++
			}
		}
	}
	tr.setOp(-1)
	sp := tr.begin("serve.MergeResults")
	planet := serve.MergeResults(parts...)
	tr.end(sp)
	sp = tr.begin("serve.SummarizeTiered")
	s := planet.SummarizeTiered(interactiveSLO, tierSLOs)
	tr.end(sp)
	if !chk.check(prefix+"planet", cellValue(s, planet)) {
		failed = attempted
	}
	st.done(len(w.cells))
	return attempted, failed
}

func (w *serveBench) layerMetrics(in layerInputs, out map[string]float64) {
	n := float64(in.passes)
	out["inference.fill_s"] = float64(in.setupSelf["inference.fill"]) / 1e9
	out["inference.fill_sizes"] = float64(in.setupCalls["inference.fill"])
	out["inference.fill_share"] = float64(in.setupSelf["inference.fill"]) / float64(in.setupWall)
	out["inference.ar_calls"] = float64(in.arCalls) / n
	out["inference.ar_s"] = float64(in.arNs) / 1e9 / n
	out["inference.ar_misses"] = float64(in.arMisses) / n
	if in.arCalls > 0 {
		out["inference.ar_hit_ratio"] = float64(in.arCalls-in.arMisses) / float64(in.arCalls)
	}
	self := in.passSelf["serve.RunRouted"]
	out["serve.run_s"] = float64(self+in.arNs) / 1e9 / n
	out["serve.self_s"] = float64(self) / 1e9 / n
	out["serve.iterations"] = float64(w.iterations) / n
	if w.iterations > 0 {
		out["serve.ns_per_iteration"] = float64(self) / float64(w.iterations)
	}
	out["serve.preemptions"] = float64(w.preemptions) / n
	out["serve.swaps"] = float64(w.swaps) / n
	out["serve.recomputes"] = float64(w.recomputes) / n
	out["serve.swap_gb"] = float64(w.swapBytes) / 1e9 / n
	out["serve.workload_gen_s"] = float64(in.setupSelf["serve.Diurnal"]+in.setupSelf["serve.WithPriorities"]+in.setupSelf["serve.WithPrefixGroups"]) / 1e9
	out["serve.merge_s"] = float64(in.passSelf["serve.MergeResults"]) / 1e9 / n
	out["serve.summarize_s"] = float64(in.passSelf["serve.SummarizeTiered"]) / 1e9 / n
}

// guards fails the traced run if the timed phase priced anything set-up did
// not, or if a workload stopped (or started) exercising preemption.
func (w *serveBench) guards(m map[string]float64) []string {
	var bad []string
	if m["inference.ar_misses"] != 0 {
		bad = append(bad, fmt.Sprintf("%v AllReduce pricing misses in the timed phase", m["inference.ar_misses"]))
	}
	switch {
	case w.shape.paged && w.cellsWithoutPreemption > 0:
		bad = append(bad, fmt.Sprintf("%d paged cell runs without a preemption", w.cellsWithoutPreemption))
	case !w.shape.paged && w.preemptions > 0:
		bad = append(bad, fmt.Sprintf("%d preemptions under reserved KV", w.preemptions))
	}
	return bad
}
