// Package serve is a traffic-driven LLM serving simulator: open-loop
// request arrivals (Poisson, bursty, or trace replay) feed a continuous-
// batching scheduler that runs as event callbacks on the internal/sim
// discrete-event engine, pricing every engine iteration with the
// internal/inference roofline + simulated-collective step models. It turns
// the repository's single-step cost models into end-to-end serving metrics:
// TTFT, TPOT, E2E latency distributions, and goodput under SLOs.
//
// Everything is deterministic: workloads are generated by a self-contained
// seeded PRNG, the engine's event order is total, and all reported times
// are virtual — two runs of the same configuration produce bit-identical
// metrics, which is what lets serving scenarios commit goldens.
package serve

import (
	"fmt"
	"math"
	"sort"

	"mscclpp/internal/sim"
)

// Request is one inference request of an open-loop workload.
type Request struct {
	ID        int
	Arrival   sim.Time // when the request enters the system
	PromptLen int      // prompt tokens to prefill
	OutputLen int      // tokens to generate (>= 1; the first comes from prefill)

	// PrefixGroup identifies a shared prompt prefix (system prompt,
	// few-shot header, conversation root) this request starts with; 0
	// means none. A replica that has already prefilled a member of the
	// group serves later members with the first PrefixLen prompt tokens
	// discounted from prefill — the KV prefix-reuse model the
	// prefix-affinity routing policy exploits.
	PrefixGroup uint64
	// PrefixLen is the shared prefix length in tokens. Only meaningful
	// when PrefixGroup != 0; on a cache hit the discount is capped at
	// PromptLen-1 so at least one token always goes through prefill.
	PrefixLen int

	// Priority is the request's admission tier: 0 (the default) is the
	// interactive, highest class; larger values are lower classes (batch
	// traffic). Admission is strict across classes — a waiting class-0
	// request always goes before any class-1 request — and paged-KV
	// preemption evicts the lowest class first.
	Priority int
}

// Workload is a finite, arrival-ordered request sequence.
type Workload struct {
	Name     string
	Requests []Request
}

// LenDist draws a token-count from a length distribution.
type LenDist func(r *RNG) int

// FixedLen always returns n.
func FixedLen(n int) LenDist {
	return func(*RNG) int { return n }
}

// UniformLen draws uniformly from [min, max].
func UniformLen(min, max int) LenDist {
	if min < 1 || max < min {
		panic(fmt.Sprintf("serve: UniformLen bounds [%d, %d]", min, max))
	}
	return func(r *RNG) int { return min + r.Intn(max-min+1) }
}

// LogNormalLen draws from a log-normal with the given median and shape
// sigma, clamped to [1, max] — the shape production prompt/output length
// traces are commonly fit with (a few long requests dominate token volume).
func LogNormalLen(median float64, sigma float64, max int) LenDist {
	if median < 1 || max < 1 {
		panic(fmt.Sprintf("serve: LogNormalLen median %g max %d", median, max))
	}
	mu := math.Log(median)
	return func(r *RNG) int {
		n := int(r.LogNormal(mu, sigma))
		if n < 1 {
			n = 1
		}
		if n > max {
			n = max
		}
		return n
	}
}

// Poisson generates n requests with exponential inter-arrival times at
// ratePerSec requests/second, prompt and output lengths drawn per request.
// The same (seed, n, rate, dists) always yields the same workload.
func Poisson(seed uint64, n int, ratePerSec float64, prompt, output LenDist) Workload {
	if n < 1 || ratePerSec <= 0 {
		panic(fmt.Sprintf("serve: Poisson(n=%d, rate=%g)", n, ratePerSec))
	}
	rng := NewRNG(seed)
	meanGap := 1e9 / ratePerSec // ns
	var t float64
	reqs := make([]Request, n)
	for i := range reqs {
		t += rng.Exp(meanGap)
		reqs[i] = Request{
			ID:        i,
			Arrival:   sim.Time(t),
			PromptLen: prompt(rng),
			OutputLen: output(rng),
		}
	}
	return Workload{
		Name:     fmt.Sprintf("poisson-%.3gqps", ratePerSec),
		Requests: reqs,
	}
}

// Bursty generates n requests from an on/off modulated Poisson process:
// the arrival rate alternates between baseRate (for offDur of virtual
// time) and burstRate (for onDur). This is the canonical "diurnal spike /
// batch-job burst" stressor for admission control: a scheduler tuned to
// the base rate must absorb burstRate without collapsing tail latency.
func Bursty(seed uint64, n int, baseRate, burstRate float64, offDur, onDur sim.Duration, prompt, output LenDist) Workload {
	if n < 1 || baseRate <= 0 || burstRate <= 0 || offDur <= 0 || onDur <= 0 {
		panic("serve: Bursty with non-positive parameters")
	}
	rng := NewRNG(seed)
	cycle := offDur + onDur
	var t float64
	reqs := make([]Request, n)
	for i := range reqs {
		// Rate of the phase the clock is currently in; a draw that crosses a
		// phase boundary is kept as-is (the thinning error is irrelevant to
		// the scheduler and keeping it makes generation a single pass).
		phase := sim.Time(t) % cycle
		rate := baseRate
		if phase >= offDur {
			rate = burstRate
		}
		t += rng.Exp(1e9 / rate)
		reqs[i] = Request{
			ID:        i,
			Arrival:   sim.Time(t),
			PromptLen: prompt(rng),
			OutputLen: output(rng),
		}
	}
	return Workload{
		Name:     fmt.Sprintf("bursty-%.3g-%.3gqps", baseRate, burstRate),
		Requests: reqs,
	}
}

// Diurnal generates n requests from a sinusoidally modulated Poisson
// process: the instantaneous rate swings between troughFrac*peakRate and
// peakRate once per period, starting at the trough. This is the planetary-
// scale serving shape — a fleet's offered load follows the day/night cycle
// of its user base — and the generator is a single pass of Lewis-Shedler
// thinning (candidates at peakRate, kept with probability rate(t)/peak),
// so a multi-million-request day materializes in one seeded sweep.
func Diurnal(seed uint64, n int, peakRate, troughFrac float64, period sim.Duration, prompt, output LenDist) Workload {
	if n < 1 || peakRate <= 0 || troughFrac <= 0 || troughFrac > 1 || period <= 0 {
		panic(fmt.Sprintf("serve: Diurnal(n=%d, peak=%g, trough=%g, period=%d)", n, peakRate, troughFrac, period))
	}
	rng := NewRNG(seed)
	meanGap := 1e9 / peakRate // ns between thinning candidates
	var t float64
	reqs := make([]Request, 0, n)
	for i := 0; len(reqs) < n; {
		t += rng.Exp(meanGap)
		// Sinusoidal intensity, trough at phase 0: rate(t)/peak in
		// [troughFrac, 1]. The acceptance draw is taken unconditionally so
		// the candidate stream (and thus every kept arrival) is identical
		// whatever fraction survives.
		phase := 2 * math.Pi * math.Mod(t, float64(period)) / float64(period)
		frac := troughFrac + (1-troughFrac)*(1-math.Cos(phase))/2
		if rng.Float64() >= frac {
			continue
		}
		reqs = append(reqs, Request{
			ID:        i,
			Arrival:   sim.Time(t),
			PromptLen: prompt(rng),
			OutputLen: output(rng),
		})
		i++
	}
	return Workload{
		Name:     fmt.Sprintf("diurnal-%.3gqps-x%.2g", peakRate, troughFrac),
		Requests: reqs,
	}
}

// Trace wraps an explicit request list as a workload (fixed trace replay).
// Requests are sorted by arrival time and re-IDed in arrival order;
// non-positive lengths are rejected.
func Trace(name string, reqs []Request) (Workload, error) {
	out := append([]Request(nil), reqs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i := range out {
		if out[i].PromptLen < 1 || out[i].OutputLen < 1 {
			return Workload{}, fmt.Errorf("serve: trace %s request %d: prompt %d / output %d tokens",
				name, i, out[i].PromptLen, out[i].OutputLen)
		}
		if out[i].Arrival < 0 {
			return Workload{}, fmt.Errorf("serve: trace %s request %d: negative arrival %d", name, i, out[i].Arrival)
		}
		out[i].ID = i
	}
	return Workload{Name: name, Requests: out}, nil
}

// WithPrefixGroups returns a copy of wl in which a reuseFrac fraction of
// requests (drawn deterministically from seed) carry one of `groups`
// shared prompt prefixes of prefixTokens tokens each — the workload shape
// of multi-tenant serving, where many requests of a tenant start with the
// same system prompt. Requests outside the reuse fraction keep
// PrefixGroup 0 (unique prompts). Arrival times and lengths are untouched,
// so routed comparisons against the ungrouped workload see identical
// offered load.
func WithPrefixGroups(wl Workload, seed uint64, groups int, reuseFrac float64, prefixTokens int) Workload {
	if groups < 1 || reuseFrac < 0 || reuseFrac > 1 || prefixTokens < 1 {
		panic(fmt.Sprintf("serve: WithPrefixGroups(groups=%d, reuse=%g, prefix=%d)", groups, reuseFrac, prefixTokens))
	}
	out := wl
	out.Requests = append([]Request(nil), wl.Requests...)
	rng := NewRNG(seed)
	for i := range out.Requests {
		if rng.Float64() < reuseFrac {
			out.Requests[i].PrefixGroup = 1 + uint64(rng.Intn(groups))
			out.Requests[i].PrefixLen = prefixTokens
		} else {
			out.Requests[i].PrefixGroup = 0
			out.Requests[i].PrefixLen = 0
		}
	}
	out.Name = fmt.Sprintf("%s+prefix(%dx%dtok,%.0f%%)", wl.Name, groups, prefixTokens, 100*reuseFrac)
	return out
}

// WithPriorities returns a copy of wl in which an interactiveFrac fraction
// of requests (drawn deterministically from seed) keep the interactive
// class (priority 0) and the rest are demoted to the batch class
// (priority 1) — the canonical two-tier split of production serving, where
// chat traffic shares replicas with background summarization/embedding
// jobs. Arrival times and lengths are untouched, so tiered comparisons
// against the unprioritized workload see identical offered load.
func WithPriorities(wl Workload, seed uint64, interactiveFrac float64) Workload {
	if interactiveFrac < 0 || interactiveFrac > 1 {
		panic(fmt.Sprintf("serve: WithPriorities(interactive=%g)", interactiveFrac))
	}
	out := wl
	out.Requests = append([]Request(nil), wl.Requests...)
	rng := NewRNG(seed)
	for i := range out.Requests {
		if rng.Float64() < interactiveFrac {
			out.Requests[i].Priority = 0
		} else {
			out.Requests[i].Priority = 1
		}
	}
	out.Name = fmt.Sprintf("%s+tiers(%.0f%%int)", wl.Name, 100*interactiveFrac)
	return out
}

// MergeWorkloads interleaves several workloads into one arrival-ordered
// stream — the multi-tenant composition primitive: generate each tenant's
// traffic with its own rate envelope (Diurnal, Bursty, ...), priorities
// and prefix groups, then merge for a shared fleet. Nonzero prefix groups
// are re-keyed per part so tenants never alias each other's prompt
// caches, and requests are re-IDed in global arrival order. Stable: ties
// keep part order, so the merge is deterministic.
func MergeWorkloads(name string, parts ...Workload) Workload {
	if len(parts) == 0 {
		panic("serve: MergeWorkloads with no parts")
	}
	var out []Request
	for pi, p := range parts {
		ns := Mix64(uint64(pi) + 0x7e57a11c)
		for _, r := range p.Requests {
			if r.PrefixGroup != 0 {
				g := Mix64(ns ^ r.PrefixGroup)
				if g == 0 {
					g = 1
				}
				r.PrefixGroup = g
			}
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i := range out {
		out[i].ID = i
	}
	return Workload{Name: name, Requests: out}
}

// WithSessions expands every request of wl into a multi-turn conversation:
// the original request is turn one; each session runs Uniform[minTurns,
// maxTurns] turns, follow-up turns arriving Exp(think) after the previous
// turn. A follow-up's prompt is the whole conversation so far (previous
// prompt + previous output) plus a fresh user utterance drawn uniformly
// in [1, original prompt length], capped at maxPrompt tokens; its
// PrefixLen marks that carried context and all turns of a session share a
// unique nonzero PrefixGroup — so sessions exercise the prefix cache the
// way real chat traffic does (turn k re-prefills only its new utterance
// on a replica that served turn k-1). Output lengths and priority are
// inherited from the original request. The stream is open-loop: a
// follow-up can arrive while its predecessor is still decoding, which the
// scheduler treats as independent requests. Deterministic in (wl, seed).
func WithSessions(wl Workload, seed uint64, minTurns, maxTurns int, think sim.Duration, maxPrompt int) Workload {
	if minTurns < 1 || maxTurns < minTurns || think <= 0 || maxPrompt < 2 {
		panic(fmt.Sprintf("serve: WithSessions(turns=[%d,%d], think=%d, maxPrompt=%d)",
			minTurns, maxTurns, think, maxPrompt))
	}
	rng := NewRNG(seed)
	var out []Request
	for si, root := range wl.Requests {
		turns := minTurns + rng.Intn(maxTurns-minTurns+1)
		group := Mix64(Mix64(seed^uint64(si)) + 1)
		if group == 0 {
			group = 1
		}
		prev := root
		for k := 0; k < turns; k++ {
			r := prev
			if k > 0 {
				context := prev.PromptLen + prev.OutputLen
				utter := 1 + rng.Intn(root.PromptLen)
				r.Arrival = prev.Arrival + sim.Time(rng.Exp(float64(think)))
				r.PromptLen = context + utter
				r.PrefixLen = context
				if r.PromptLen > maxPrompt {
					r.PromptLen = maxPrompt
					if r.PrefixLen > maxPrompt-1 {
						r.PrefixLen = maxPrompt - 1
					}
				}
				r.OutputLen = root.OutputLen
			}
			r.PrefixGroup = group
			out = append(out, r)
			prev = r
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i := range out {
		out[i].ID = i
	}
	return Workload{
		Name:     fmt.Sprintf("%s+sessions(%d-%dturns)", wl.Name, minTurns, maxTurns),
		Requests: out,
	}
}

// TotalOutputTokens sums the workload's generated-token demand.
func (w Workload) TotalOutputTokens() int64 {
	var n int64
	for _, r := range w.Requests {
		n += int64(r.OutputLen)
	}
	return n
}

// TotalPromptTokens sums the workload's prompt-token demand.
func (w Workload) TotalPromptTokens() int64 {
	var n int64
	for _, r := range w.Requests {
		n += int64(r.PromptLen)
	}
	return n
}
