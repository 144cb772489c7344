package serve

// Per-request serving metrics and their aggregation: TTFT / TPOT / E2E
// latency distributions (percentiles via benchkit) and goodput under SLOs.
// All raw values are exact virtual-time integers; summaries derive from
// them deterministically. Fields added for paged KV (preemption, swap and
// rejection accounting, priority tiers) are omitempty-zero on legacy
// configurations so pre-paging goldens stay byte-identical.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mscclpp/internal/sim"
)

// RequestMetrics is the lifecycle record of one completed (or rejected)
// request.
type RequestMetrics struct {
	ID        int `json:"id"`
	PromptLen int `json:"prompt_len"`
	OutputLen int `json:"output_len"`

	// Priority is the request's admission tier (0 = interactive, highest;
	// larger values are lower classes — see Request.Priority).
	Priority int `json:"priority,omitempty"`

	Arrival    sim.Time `json:"arrival_ns"`
	Admitted   sim.Time `json:"admitted_ns"`    // joined the running batch
	FirstToken sim.Time `json:"first_token_ns"` // prefill completed
	Done       sim.Time `json:"done_ns"`        // last token generated

	// PrefixHit records whether admission found the request's shared
	// prompt prefix already cached on the replica (see Request.PrefixGroup).
	PrefixHit bool `json:"prefix_hit,omitempty"`

	// Preemptions counts how many times a paged replica evicted this
	// request mid-run; SwapBytes sums the KV bytes its swap-out and
	// swap-in transfers moved over the copy engines (all TP lanes, both
	// directions). Zero under KVReserve.
	Preemptions int   `json:"preemptions,omitempty"`
	SwapBytes   int64 `json:"swap_bytes,omitempty"`

	// Rejected marks a request the configuration could never admit: it was
	// refused up front with RejectedReason instead of aborting the run, and
	// its Admitted/FirstToken/Done are zero. Rejected rows count against
	// SLO attainment but contribute no latency samples.
	Rejected       bool   `json:"rejected,omitempty"`
	RejectedReason string `json:"rejected_reason,omitempty"`

	// Disaggregated-serving extras (zero, and omitted from JSON, for
	// unified runs). DecodeAdmitted is when the decode pool let the
	// request's completed handoff into a running batch; KVHandoffBytes is
	// the prompt KV footprint moved prefill -> decode over the fabric (all
	// tensor-parallel shards); HandoffNs is that transfer's duration,
	// including occupancy waits on busy NICs/DMA engines.
	DecodeAdmitted sim.Time     `json:"decode_admitted_ns,omitempty"`
	KVHandoffBytes int64        `json:"kv_handoff_bytes,omitempty"`
	HandoffNs      sim.Duration `json:"handoff_ns,omitempty"`
}

// TTFT is the time-to-first-token: arrival to first output token.
func (m RequestMetrics) TTFT() sim.Duration { return m.FirstToken - m.Arrival }

// QueueDelay is the time spent waiting for admission.
func (m RequestMetrics) QueueDelay() sim.Duration { return m.Admitted - m.Arrival }

// E2E is the end-to-end latency: arrival to last token.
func (m RequestMetrics) E2E() sim.Duration { return m.Done - m.Arrival }

// TPOT is the mean time-per-output-token over the decode phase (0 for
// single-token outputs, which have no decode phase).
func (m RequestMetrics) TPOT() sim.Duration {
	if m.OutputLen <= 1 {
		return 0
	}
	return (m.Done - m.FirstToken) / sim.Duration(m.OutputLen-1)
}

// PreemptEvent records one paged-KV eviction and the closed-form costs the
// recompute-or-swap crossover compared at that instant — the audit trail
// the serve-overload scenario checks the policy against.
type PreemptEvent struct {
	TimeNs    sim.Time `json:"time_ns"`
	RequestID int      `json:"request_id"`
	// Mode is "recompute" or "swap" — the choice actually taken.
	Mode string `json:"mode"`
	// ResidentTokens is the victim's KV-resident context size at eviction.
	ResidentTokens int `json:"resident_tokens"`
	// RecomputeCostNs is the closed-form cost of re-prefilling the resident
	// context (batch of 1, uncontended); SwapCostNs is the closed-form cost
	// of one swap-out plus one swap-in over uncontended copy engines.
	RecomputeCostNs sim.Duration `json:"recompute_cost_ns"`
	SwapCostNs      sim.Duration `json:"swap_cost_ns"`
}

// Result is the outcome of one serving simulation. Stream carries the
// run's metric accumulator in both modes; under MetricsExact PerRequest
// also holds every row (the JSON schema is unchanged — Stream never
// marshals), and under the default MetricsStream it stays empty.
type Result struct {
	Workload   string           `json:"workload"`
	PerRequest []RequestMetrics `json:"per_request"`
	Makespan   sim.Duration     `json:"makespan_ns"` // first arrival to last completion
	Iterations int              `json:"iterations"`  // engine iterations executed

	// Stream is the metric accumulator (set on every Result a run
	// returns; nil only on a hand-built Result). It is process-local
	// state, not part of the canonical result encoding.
	Stream *StreamStats `json:"-"`

	// Paged-KV accounting (all zero, and omitted from JSON, under
	// KVReserve): Preemptions = Recomputes + Swaps counts evictions,
	// SwapBytes sums swap traffic over the copy engines, Rejected counts
	// requests refused up front, and Preempts is the per-eviction audit
	// trail in event order.
	Preemptions int            `json:"preemptions,omitempty"`
	Recomputes  int            `json:"recomputes,omitempty"`
	Swaps       int            `json:"swaps,omitempty"`
	SwapBytes   int64          `json:"swap_bytes,omitempty"`
	Rejected    int            `json:"rejected,omitempty"`
	Preempts    []PreemptEvent `json:"preempt_events,omitempty"`

	// Counters is the replica's named resource-counter snapshot (the
	// observe-only gpu iteration resource, KV-swap lanes when paged) taken
	// when Result was built. Introspection state, not part of the
	// canonical result encoding; merges do not pool it.
	Counters []sim.CounterGroup `json:"-"`
}

// MergeResults pools per-replica results into one cluster-level Result:
// the metric accumulators merge (tier counters add, latency series
// merge), per-request records are concatenated and ordered by request ID
// (stable, so duplicate IDs keep their argument order), iteration and
// preemption counts add, preemption events merge in (time, request)
// order, and the merged makespan spans the accumulators' earliest
// arrival to latest completion (rejected requests, which never complete,
// don't stretch it). Merging is associative — merging merges equals
// merging the parts — and Summarize over a merge equals Summarize over
// the pooled samples, which is the invariant the router's cross-replica
// aggregation depends on. Nil parts are skipped; the merged workload
// name is the first non-empty one.
//
// Streaming parts copy no per-request data: quantile sketches merge
// bucket-wise, so pooling a million-request cluster copies no rows. All
// parts must be in the same metrics mode (a part without an accumulator
// counts as exact); mixing exact and streaming parts panics — the pooled
// summary would silently drop samples.
func MergeResults(parts ...*Result) *Result {
	out := &Result{}
	streamParts := 0
	// Exact rows end up ordered by request ID: sort (part, row) positions
	// rather than the wide rows, then copy each row once.
	type pos struct{ part, row int32 }
	var exact [][]RequestMetrics
	var ord []pos
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out.Workload == "" {
			out.Workload = p.Workload
		}
		out.Iterations += p.Iterations
		out.Preemptions += p.Preemptions
		out.Recomputes += p.Recomputes
		out.Swaps += p.Swaps
		out.SwapBytes += p.SwapBytes
		out.Rejected += p.Rejected
		out.Preempts = append(out.Preempts, p.Preempts...)
		if p.Stream != nil {
			if out.Stream == nil {
				out.Stream = newStreamStats(p.Stream.mode, p.Stream.slo, p.Stream.tierSLOs)
			}
			out.Stream.merge(p.Stream)
			if p.Stream.mode == MetricsStream {
				streamParts++
				continue
			}
		}
		for ri := range p.PerRequest {
			ord = append(ord, pos{int32(len(exact)), int32(ri)})
		}
		exact = append(exact, p.PerRequest)
	}
	if streamParts > 0 && len(exact) > 0 {
		panic(fmt.Sprintf("serve: MergeResults mixing %d streaming and %d exact parts", streamParts, len(exact)))
	}
	sort.SliceStable(out.Preempts, func(i, j int) bool {
		if out.Preempts[i].TimeNs != out.Preempts[j].TimeNs {
			return out.Preempts[i].TimeNs < out.Preempts[j].TimeNs
		}
		return out.Preempts[i].RequestID < out.Preempts[j].RequestID
	})
	if out.Stream != nil && out.Stream.hasSpan {
		out.Makespan = out.Stream.lastDone - out.Stream.firstArr
	}
	slices.SortStableFunc(ord, func(a, b pos) int {
		return cmp.Compare(exact[a.part][a.row].ID, exact[b.part][b.row].ID)
	})
	out.PerRequest = slices.Grow(out.PerRequest, len(ord))
	for _, o := range ord {
		out.PerRequest = append(out.PerRequest, exact[o.part][o.row])
	}
	return out
}

// SLO is a latency service-level objective for goodput accounting. A
// request meets the SLO when TTFT <= MaxTTFT and TPOT <= MaxTPOT (either
// bound may be zero, meaning "not constrained").
type SLO struct {
	MaxTTFT sim.Duration
	MaxTPOT sim.Duration
}

// Met reports whether one request satisfied the SLO. Rejected requests
// never do.
func (s SLO) Met(m RequestMetrics) bool {
	if m.Rejected {
		return false
	}
	if s.MaxTTFT > 0 && m.TTFT() > s.MaxTTFT {
		return false
	}
	if s.MaxTPOT > 0 && m.TPOT() > s.MaxTPOT {
		return false
	}
	return true
}

// TierSummary aggregates one priority class of a tiered summary.
type TierSummary struct {
	Priority int `json:"priority"`
	Requests int `json:"requests"`
	Rejected int `json:"rejected,omitempty"`
	// SLOAttainment is the fraction of the tier's requests meeting the
	// tier's SLO (rejections count as misses).
	SLOAttainment float64 `json:"slo_attainment"`
	TTFTp50ms     float64 `json:"ttft_p50_ms"`
	TTFTp99ms     float64 `json:"ttft_p99_ms"`
	// GoodputTokS is the tier's SLO-compliant token throughput over the
	// whole run's makespan.
	GoodputTokS float64 `json:"goodput_tok_s"`
}

// Summary is the aggregate view of a Result: latency percentiles in
// milliseconds, token throughput, and goodput under an SLO.
type Summary struct {
	Requests   int     `json:"requests"`
	Iterations int     `json:"iterations"`
	MakespanS  float64 `json:"makespan_s"`

	TTFTp50ms float64 `json:"ttft_p50_ms"`
	TTFTp90ms float64 `json:"ttft_p90_ms"`
	TTFTp99ms float64 `json:"ttft_p99_ms"`
	TPOTp50ms float64 `json:"tpot_p50_ms"`
	TPOTp99ms float64 `json:"tpot_p99_ms"`
	E2Ep50ms  float64 `json:"e2e_p50_ms"`
	E2Ep99ms  float64 `json:"e2e_p99_ms"`

	// Throughput counts every generated token; Goodput only tokens of
	// SLO-compliant requests. Both are tokens/second of virtual time.
	ThroughputTokS float64 `json:"throughput_tok_s"`
	GoodputTokS    float64 `json:"goodput_tok_s"`
	// SLOAttainment is the fraction of requests meeting the SLO
	// (rejections count as misses).
	SLOAttainment float64 `json:"slo_attainment"`

	// Rejected counts requests refused up front (see
	// RequestMetrics.Rejected); zero on legacy configurations.
	Rejected int `json:"rejected,omitempty"`
	// ByTier is the per-priority-class breakdown, ascending priority; only
	// populated by SummarizeTiered.
	ByTier []TierSummary `json:"by_tier,omitempty"`
}

// Summarize aggregates a Result under a single SLO applied to every
// request. On a streaming Result (MetricsStream) the SLO verdicts were
// already taken at completion time, so slo must equal Config.SLO (and the
// config must not have per-tier overrides); pass the same objectives or
// retain rows with MetricsExact.
func (r *Result) Summarize(slo SLO) Summary {
	return r.stats(slo, nil).summary(r, false)
}

// SummarizeTiered aggregates a Result under per-tier SLOs: requests of
// priority p are held to tiers[p] when present and fallback otherwise,
// both for overall goodput/attainment and for the per-tier breakdown in
// Summary.ByTier. This is how an overload scenario holds its interactive
// tier to a tight TTFT bound while batch traffic is judged against a
// looser one.
func (r *Result) SummarizeTiered(fallback SLO, tiers map[int]SLO) Summary {
	return r.stats(fallback, tiers).summary(r, true)
}

// stats returns the accumulator that answers a summary under the query
// SLOs: a streaming Result's own, which must have been judged against
// them, or a refold of an exact Result's rows into exact samples judged
// against them now.
func (r *Result) stats(fallback SLO, tiers map[int]SLO) *StreamStats {
	if r.Stream != nil && r.Stream.mode == MetricsStream {
		r.Stream.check(fallback, tiers)
		return r.Stream
	}
	st := &StreamStats{mode: MetricsExact, slo: fallback, tierSLOs: tiers, exact: true}
	for _, m := range r.PerRequest {
		st.observe(m)
	}
	return st
}

// tierSLO is the objective requests of priority p are judged against:
// the tier's entry in tiers, else fallback.
func tierSLO(fallback SLO, tiers map[int]SLO, p int) SLO {
	if s, ok := tiers[p]; ok {
		return s
	}
	return fallback
}
