package inference

// Expert-parallel MoE step pricing: the dense roofline of inference.go
// composed with internal/moe's dispatch/combine all-to-all priced on the
// real simulated fabric. A Model carries an optional MoESpec; when set,
// the serving layer prices iterations with MoEDecodeStepCtx /
// MoEPrefillStep instead of the dense step functions, paying per MoE layer
// an all-to-all measured by an EPTimer and scaling the routed-expert
// compute by the routing's deterministic load factor (hot-expert skew
// under the configured placement).

import (
	"fmt"

	"mscclpp/internal/moe"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// MoESpec describes the expert-parallel side of a Mixture-of-Experts
// model. A nil spec on a Model means dense: every step function in this
// package then reduces to the original roofline + AllReduce pricing.
type MoESpec struct {
	// Layers is the number of MoE transformer layers; the model's remaining
	// layers are dense and carry no all-to-all.
	Layers int
	// RoutedFrac is the fraction of the model's per-token FLOPs spent in
	// routed experts — the part whose effective cost scales with expert
	// load imbalance. The remainder (attention, shared expert, dense
	// layers) is imbalance-independent.
	RoutedFrac float64
	// Config is the routing and placement description handed to
	// internal/moe: experts, top-k, hidden size, hot-expert skew and the
	// expert-placement knob.
	Config moe.Config
	// Transport selects the all-to-all stack (MSCCL++ proxy or
	// NVSHMEM-IBGDA).
	Transport moe.Transport
}

// LayerBytes returns one MoE layer's cross-GPU all-to-all volume at a
// token count on an n-GPU expert-parallel group: dispatch moves FP8
// activations (1 B/element), combine returns BF16 partials (2 B/element).
// Local-expert (diagonal) traffic is excluded — it never touches the
// fabric.
func (s *MoESpec) LayerBytes(n, tokens int) (dispatch, combine int64) {
	for r, row := range s.Config.TrafficMatrix(n, tokens, 1) {
		for p, b := range row {
			if p != r {
				dispatch += b
			}
		}
	}
	return dispatch, 2 * dispatch
}

// A2ACost is one MoE layer's all-to-all price at a token count.
type A2ACost struct {
	Dispatch sim.Duration
	Combine  sim.Duration
}

// EPTimer measures one MoE layer's dispatch+combine all-to-all latency at
// arbitrary token counts for one (environment, routing config, transport)
// triple, caching per token count. It mirrors ARTimer: each measurement
// builds a fresh simulated cluster and times one pass, which is exact
// because Dispatch and Combine are idempotent
// (TestDispatchCombineBothTransports in internal/moe), and it is safe for
// concurrent use, measuring each token count once.
type EPTimer struct {
	cache memo[int, A2ACost]
}

// NewEPTimer returns a timer for the given routing config and transport on
// the environment produced by envFn.
func NewEPTimer(envFn func() *topology.Env, cfg moe.Config, tr moe.Transport) *EPTimer {
	t := &EPTimer{}
	t.cache.fn = func(tokens int) A2ACost {
		c, err := MeasureA2A(envFn(), cfg, tr, tokens)
		if err != nil {
			panic(fmt.Sprintf("inference: measuring %s all-to-all at %d tokens: %v", tr, tokens, err))
		}
		return c
	}
	return t
}

// Layer returns the dispatch and combine latency of one MoE layer's
// all-to-all moving `tokens` batch tokens.
func (t *EPTimer) Layer(tokens int) A2ACost {
	if tokens <= 0 {
		return A2ACost{}
	}
	return t.cache.get(tokens)
}

// MeasureA2A times one dispatch and one combine all-to-all at `tokens`
// batch tokens on a fresh simulated cluster. One pass is exact because the
// exchange is idempotent (TestDispatchCombineBothTransports in
// internal/moe).
func MeasureA2A(env *topology.Env, cfg moe.Config, tr moe.Transport, tokens int) (A2ACost, error) {
	e, err := moe.New(env, cfg, tr)
	if err != nil {
		return A2ACost{}, err
	}
	d, err := e.Dispatch(tokens)
	if err != nil {
		return A2ACost{}, err
	}
	c, err := e.Combine(tokens)
	if err != nil {
		return A2ACost{}, err
	}
	return A2ACost{Dispatch: d.Elapsed, Combine: c.Elapsed}, nil
}

// MoEStepCost splits an expert-parallel iteration's virtual time into the
// bookable parts the serving layer's counters report.
type MoEStepCost struct {
	Total sim.Duration
	// Dispatch and Combine are the all-to-all shares, summed over the
	// model's MoE layers.
	Dispatch sim.Duration
	Combine  sim.Duration
}

// moeCompute is the shared roofline core of the MoE step functions: the
// dense compute term with the routed-expert share scaled by the routing's
// load factor — the batch is not done until the hottest GPU is.
func moeCompute(env *topology.Env, m Model, flops, memBytes float64, tokens int) sim.Duration {
	spec := m.MoE
	lf := spec.Config.LoadFactor(env.TotalGPUs(), tokens)
	eff := flops * ((1 - spec.RoutedFrac) + spec.RoutedFrac*lf)
	compT := eff / (env.PeakTFLOPS * 1e3 * m.Efficiency)
	compute := sim.Duration(memBytes / (env.HBMBW * m.Efficiency))
	if c := sim.Duration(compT); c > compute {
		compute = c
	}
	return compute
}

// MoEDecodeStepCtx prices one expert-parallel decode iteration: the dense
// roofline of DecodeStepCtx with the routed-expert compute scaled by the
// load factor, plus per MoE layer a dispatch+combine all-to-all at the
// batch's token count (one token per running sequence). m.MoE must be
// non-nil; a2a is usually an EPTimer's Layer method.
func MoEDecodeStepCtx(env *topology.Env, m Model, bsz int, totalCtx int64, ar func(int64) sim.Duration, a2a func(tokens int) A2ACost) MoEStepCost {
	memBytes := float64(m.WeightBytesPerGPU) + float64(totalCtx*m.KVBytesPerTokenPerGPU)
	flops := m.FLOPsPerTokenPerGPU * float64(bsz)
	compute := moeCompute(env, m, flops, memBytes, bsz)
	msg := int64(bsz) * int64(m.Hidden) * 2
	comm := sim.Duration(m.Layers*m.ARsPerLayer) * ar(msg)
	lc := a2a(bsz)
	disp := sim.Duration(m.MoE.Layers) * lc.Dispatch
	comb := sim.Duration(m.MoE.Layers) * lc.Combine
	return MoEStepCost{Total: compute + comm + disp + comb, Dispatch: disp, Combine: comb}
}

// MoEPrefillStep prices one expert-parallel chunked-prefill iteration over
// bsz sequences of seqlen tokens: PrefillStep's compute-bound roofline with
// load-factor scaling on the routed share, plus the per-MoE-layer
// all-to-all at the chunk's full token count.
func MoEPrefillStep(env *topology.Env, m Model, bsz, seqlen int, ar func(int64) sim.Duration, a2a func(tokens int) A2ACost) MoEStepCost {
	tokens := bsz * seqlen
	flops := m.FLOPsPerTokenPerGPU * float64(tokens)
	compute := moeCompute(env, m, flops, 0, tokens)
	msg := int64(tokens) * int64(m.Hidden) * 2
	comm := sim.Duration(m.Layers*m.ARsPerLayer) * ar(msg)
	lc := a2a(tokens)
	disp := sim.Duration(m.MoE.Layers) * lc.Dispatch
	comb := sim.Duration(m.MoE.Layers) * lc.Combine
	return MoEStepCost{Total: compute + comm + disp + comb, Dispatch: disp, Combine: comb}
}

// DeepSeekV3MoE returns the DeepSeek-V3 model as an expert-parallel MoE
// deployment over ep GPUs: the dense DeepSeekV3 card (whose roofline
// constants stay untouched) plus the expert-parallel spec — 58 of the 61
// layers are MoE (the first three are dense), 256 routed experts at top-k
// 8 over IBGDA, and roughly 70% of the activated FLOPs in routed experts
// (the rest is MLA attention plus the shared expert and dense layers).
// Skew and placement default to the balanced Figure 13 setting; callers
// mutate m.MoE.Config to model imbalance.
func DeepSeekV3MoE(ep int) Model {
	m := DeepSeekV3(ep)
	m.Name = "DeepSeek-V3-EP"
	m.MoE = &MoESpec{
		Layers:     58,
		RoutedFrac: 0.7,
		Config:     moe.Config{Hidden: m.Hidden, TopK: 8, Experts: 256},
		Transport:  moe.TransportIBGDA,
	}
	return m
}
