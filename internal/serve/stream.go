package serve

// Streaming (bounded-memory) metric recording. Under the default
// MetricsStream mode a replica never accumulates per-request rows:
// each completion is judged against the configured SLO at its completion
// instant and folded into fixed-size mergeable quantile sketches
// (benchkit.Sketch), one set per priority tier. Memory per replica is
// O(tiers x sketch size) — constant in the request count — which is what
// lets a multi-million-request trace run at all. MetricsExact retains the
// full PerRequest rows (the pre-streaming behavior) for deterministic
// replay tests, property tests and small exploratory runs.

import (
	"fmt"
	"sort"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/sim"
)

// MetricsMode selects how a replica records per-request metrics.
type MetricsMode int

// Metric recording modes. MetricsStream is the zero value: bounded memory
// is the default, row retention is the opt-in.
const (
	// MetricsStream folds each completion into per-tier quantile sketches
	// at completion time and retains no PerRequest rows. The SLO judged
	// against is Config.SLO / Config.TierSLOs, fixed for the whole run;
	// Summarize must be called with the same SLOs.
	MetricsStream MetricsMode = iota
	// MetricsExact retains one RequestMetrics row per request, allowing
	// post-hoc summaries under any SLO. Memory grows with the request
	// count.
	MetricsExact
)

// TierStream is the streaming accumulator for one priority class: exact
// counters plus one sketch per latency series. All latency samples are in
// milliseconds, matching the units Summarize reports.
type TierStream struct {
	// Priority is the tier's priority class (see Request.Priority).
	Priority int
	// Requests counts every offered request of the tier, rejected included.
	Requests int64
	// Rejected counts requests refused up front (never admitted).
	Rejected int64
	// Met counts completed requests that satisfied the tier's SLO at
	// completion time.
	Met int64
	// Tokens sums output tokens of completed requests; GoodTokens only
	// those of SLO-compliant ones.
	Tokens     int64
	GoodTokens int64
	// TTFT, TPOT and E2E are the tier's latency sketches (milliseconds).
	// TPOT only collects multi-token requests, mirroring the exact path.
	TTFT *benchkit.Sketch
	TPOT *benchkit.Sketch
	E2E  *benchkit.Sketch
}

// StreamStats is a replica's (or a merged cluster's) streaming metric
// state: per-tier accumulators plus the SLO configuration they were judged
// under. Results carrying a StreamStats merge without copying any
// per-request data (MergeResults).
type StreamStats struct {
	slo      SLO
	tierSLOs map[int]SLO

	// Tiers holds one accumulator per observed priority class, ascending.
	Tiers []*TierStream

	// span of completed requests: earliest arrival to latest completion,
	// the merged-makespan inputs the exact path recovers from rows.
	firstArr sim.Time
	lastDone sim.Time
	hasSpan  bool
}

// newStreamStats builds an empty accumulator judging against the given
// SLO configuration (fallback + optional per-tier overrides).
func newStreamStats(slo SLO, tierSLOs map[int]SLO) *StreamStats {
	return &StreamStats{slo: slo, tierSLOs: tierSLOs}
}

// tier returns the accumulator for priority p, creating it (in ascending
// position) on first use.
func (st *StreamStats) tier(p int) *TierStream {
	i := sort.Search(len(st.Tiers), func(i int) bool { return st.Tiers[i].Priority >= p })
	if i < len(st.Tiers) && st.Tiers[i].Priority == p {
		return st.Tiers[i]
	}
	t := &TierStream{
		Priority: p,
		TTFT:     benchkit.NewSketch(0),
		TPOT:     benchkit.NewSketch(0),
		E2E:      benchkit.NewSketch(0),
	}
	st.Tiers = append(st.Tiers, nil)
	copy(st.Tiers[i+1:], st.Tiers[i:])
	st.Tiers[i] = t
	return t
}

// observe folds one completed request into its tier: the latency samples
// stream into the sketches and the SLO verdict is taken now, at completion
// time, against the tier's configured SLO.
func (st *StreamStats) observe(m RequestMetrics) {
	t := st.tier(m.Priority)
	t.Requests++
	t.Tokens += int64(m.OutputLen)
	t.TTFT.Add(float64(m.TTFT()) / 1e6)
	t.E2E.Add(float64(m.E2E()) / 1e6)
	if m.OutputLen > 1 {
		t.TPOT.Add(float64(m.TPOT()) / 1e6)
	}
	if tierSLO(st.slo, st.tierSLOs, m.Priority).Met(m) {
		t.Met++
		t.GoodTokens += int64(m.OutputLen)
	}
	if !st.hasSpan || m.Arrival < st.firstArr {
		st.firstArr = m.Arrival
	}
	if !st.hasSpan || m.Done > st.lastDone {
		st.lastDone = m.Done
	}
	st.hasSpan = true
}

// addRejected records an up-front rejection in priority class p (a miss
// with no latency samples, exactly like a Rejected row in the exact path).
func (st *StreamStats) addRejected(p int) {
	t := st.tier(p)
	t.Requests++
	t.Rejected++
}

// requests returns the total offered request count, rejected included.
func (st *StreamStats) requests() int64 {
	var n int64
	for _, t := range st.Tiers {
		n += t.Requests
	}
	return n
}

// sameSLOs reports whether two SLO configurations are identical.
func (st *StreamStats) sameSLOs(slo SLO, tiers map[int]SLO) bool {
	if st.slo != slo || len(st.tierSLOs) != len(tiers) {
		return false
	}
	for p, s := range tiers {
		if got, ok := st.tierSLOs[p]; !ok || got != s {
			return false
		}
	}
	return true
}

// check panics unless the queried SLOs match the streamed configuration —
// a streaming result judged SLO attainment at completion time, so it
// cannot be re-summarized under different objectives.
func (st *StreamStats) check(slo SLO, tiers map[int]SLO) {
	if !st.sameSLOs(slo, tiers) {
		panic(fmt.Sprintf("serve: Summarize(%+v, tiers %v) on a streaming Result judged against (%+v, tiers %v); "+
			"set Config.SLO/TierSLOs to the query SLOs or use MetricsExact", slo, tiers, st.slo, st.tierSLOs))
	}
}

// merge folds o's accumulators into st. Sketch merging is bucket-wise, so
// merged quantiles are independent of the merge grouping; SLO
// configurations must match (each side already judged its requests).
func (st *StreamStats) merge(o *StreamStats) {
	if o == nil {
		return
	}
	if !st.sameSLOs(o.slo, o.tierSLOs) {
		panic(fmt.Sprintf("serve: merging streaming Results with different SLOs: (%+v, %v) vs (%+v, %v)",
			st.slo, st.tierSLOs, o.slo, o.tierSLOs))
	}
	for _, ot := range o.Tiers {
		t := st.tier(ot.Priority)
		t.Requests += ot.Requests
		t.Rejected += ot.Rejected
		t.Met += ot.Met
		t.Tokens += ot.Tokens
		t.GoodTokens += ot.GoodTokens
		t.TTFT.Merge(ot.TTFT)
		t.TPOT.Merge(ot.TPOT)
		t.E2E.Merge(ot.E2E)
	}
	if o.hasSpan {
		if !st.hasSpan || o.firstArr < st.firstArr {
			st.firstArr = o.firstArr
		}
		if !st.hasSpan || o.lastDone > st.lastDone {
			st.lastDone = o.lastDone
		}
		st.hasSpan = true
	}
}

// summary builds the aggregate Summary from the streamed state, mirroring
// the exact path's definitions: percentiles over the pooled (tier-merged)
// sketches, attainment counting rejections as misses, throughput and
// goodput over the Result's makespan.
func (st *StreamStats) summary(r *Result, byTier bool) Summary {
	s := Summary{
		Requests:   int(st.requests()),
		Iterations: r.Iterations,
		MakespanS:  float64(r.Makespan) / 1e9,
	}
	if s.Requests == 0 {
		return s
	}
	ttft := benchkit.NewSketch(0)
	tpot := benchkit.NewSketch(0)
	e2e := benchkit.NewSketch(0)
	var tokens, goodTokens, met, rejected int64
	for _, t := range st.Tiers {
		ttft.Merge(t.TTFT)
		tpot.Merge(t.TPOT)
		e2e.Merge(t.E2E)
		tokens += t.Tokens
		goodTokens += t.GoodTokens
		met += t.Met
		rejected += t.Rejected
	}
	s.Rejected = int(rejected)
	if ttft.Count() > 0 {
		s.TTFTp50ms = ttft.Percentile(50)
		s.TTFTp90ms = ttft.Percentile(90)
		s.TTFTp99ms = ttft.Percentile(99)
		s.TPOTp50ms = tpot.Percentile(50)
		s.TPOTp99ms = tpot.Percentile(99)
		s.E2Ep50ms = e2e.Percentile(50)
		s.E2Ep99ms = e2e.Percentile(99)
	}
	if r.Makespan > 0 {
		s.ThroughputTokS = float64(tokens) / (float64(r.Makespan) / 1e9)
		s.GoodputTokS = float64(goodTokens) / (float64(r.Makespan) / 1e9)
	}
	s.SLOAttainment = float64(met) / float64(s.Requests)
	if byTier {
		s.ByTier = make([]TierSummary, 0, len(st.Tiers))
		for _, t := range st.Tiers {
			ts := TierSummary{
				Priority:      t.Priority,
				Requests:      int(t.Requests),
				Rejected:      int(t.Rejected),
				SLOAttainment: float64(t.Met) / float64(t.Requests),
				TTFTp50ms:     t.TTFT.Percentile(50),
				TTFTp99ms:     t.TTFT.Percentile(99),
			}
			if r.Makespan > 0 {
				ts.GoodputTokS = float64(t.GoodTokens) / (float64(r.Makespan) / 1e9)
			}
			s.ByTier = append(s.ByTier, ts)
		}
	}
	return s
}
