package serve

// Metric recording: one accumulator in both modes. Every replica folds
// each completion into per-tier counters and fixed-size mergeable
// quantile sketches (benchkit.Sketch), judged against the configured SLO
// at its completion instant; results merge accumulator by accumulator,
// and Summary is built from an accumulator alone. Memory per replica is
// O(tiers x sketch size), constant in the request count, which is what
// lets a multi-million-request trace run at all. MetricsExact
// additionally retains the PerRequest rows (for deterministic replay
// tests, property tests and small exploratory runs); its summaries
// refold those rows into a fresh accumulator of exact samples under the
// query SLOs.

import (
	"fmt"
	"sort"

	"mscclpp/internal/benchkit"
	"mscclpp/internal/sim"
)

// MetricsMode selects whether a replica retains per-request rows next to
// its accumulator.
type MetricsMode int

// Metric recording modes. MetricsStream is the zero value: bounded memory
// is the default, row retention is the opt-in.
const (
	// MetricsStream keeps only the accumulator and retains no
	// PerRequest rows. The SLO judged against is Config.SLO /
	// Config.TierSLOs, fixed for the whole run; Summarize must be called
	// with the same SLOs.
	MetricsStream MetricsMode = iota
	// MetricsExact also retains one RequestMetrics row per request;
	// Summarize refolds the rows with exact percentiles under any SLO.
	// Memory grows with the request count.
	MetricsExact
)

// TierStream is the accumulator for one priority class: exact counters
// plus one series per latency. All latency samples are in milliseconds,
// matching the units Summarize reports.
type TierStream struct {
	// Priority is the tier's priority class (see Request.Priority).
	Priority int
	// Requests counts every offered request of the tier, rejected included.
	Requests int64
	// Rejected counts requests refused up front (never admitted).
	Rejected int64
	// Met counts completed requests that satisfied the tier's SLO.
	Met int64
	// Tokens sums output tokens of completed requests; GoodTokens only
	// those of SLO-compliant ones.
	Tokens     int64
	GoodTokens int64

	// ttft, tpot and e2e are the latency series; tpot only collects
	// multi-token requests (single-token outputs have no decode phase).
	ttft, tpot, e2e series
}

// series is one latency series: a mergeable bounded-memory sketch, or
// every sample in the refold of an exact Result.
type series struct {
	sketch  *benchkit.Sketch
	samples []float64
}

func newSeries(exact bool) series {
	if exact {
		return series{}
	}
	return series{sketch: benchkit.NewSketch(0)}
}

func (s *series) add(x float64) {
	if s.sketch != nil {
		s.sketch.Add(x)
		return
	}
	s.samples = append(s.samples, x)
}

// merge folds o (of the same kind) into s. Sketches merge bucket-wise
// and percentiles of a sorted multiset ignore insertion order, so either
// kind answers the same quantiles whatever the merge grouping.
func (s *series) merge(o *series) {
	if s.sketch != nil {
		s.sketch.Merge(o.sketch)
		return
	}
	s.samples = append(s.samples, o.samples...)
}

// quantiles returns the series' percentile view: the sketch itself, or
// the samples sorted once.
func (s *series) quantiles() interface{ Percentile(p float64) float64 } {
	if s.sketch != nil {
		return s.sketch
	}
	return benchkit.NewSummary(s.samples)
}

// StreamStats is the metric accumulator of a replica (or of a merged
// cluster): per-tier counters and latency series plus the SLO
// configuration completions were judged under. Every Result a run
// returns carries one, in both modes; results merge accumulator by
// accumulator (MergeResults).
type StreamStats struct {
	// mode is the owning Result's recording mode: under MetricsExact the
	// Result also retains its rows, and summaries refold them.
	mode     MetricsMode
	slo      SLO
	tierSLOs map[int]SLO
	// exact makes the latency series keep every sample instead of a
	// sketch; only the refold of an exact Result's rows sets it.
	exact bool

	// Tiers holds one accumulator per observed priority class, ascending.
	Tiers []*TierStream

	// span of completed requests: earliest arrival to latest completion,
	// the merged makespan.
	firstArr sim.Time
	lastDone sim.Time
	hasSpan  bool
}

// newStreamStats builds an empty accumulator of the given mode judging
// against the given SLO configuration (fallback + optional per-tier
// overrides).
func newStreamStats(mode MetricsMode, slo SLO, tierSLOs map[int]SLO) *StreamStats {
	return &StreamStats{mode: mode, slo: slo, tierSLOs: tierSLOs}
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
		ttft:     newSeries(st.exact),
		tpot:     newSeries(st.exact),
		e2e:      newSeries(st.exact),
	}
	st.Tiers = append(st.Tiers, nil)
	copy(st.Tiers[i+1:], st.Tiers[i:])
	st.Tiers[i] = t
	return t
}

// observe folds one request row into its tier. A rejected row counts as
// a miss with no latency samples; a completed one streams its latencies
// into the series and is judged now against the tier's SLO.
func (st *StreamStats) observe(m RequestMetrics) {
	t := st.tier(m.Priority)
	t.Requests++
	if m.Rejected {
		t.Rejected++
		return
	}
	t.Tokens += int64(m.OutputLen)
	t.ttft.add(float64(m.TTFT()) / 1e6)
	t.e2e.add(float64(m.E2E()) / 1e6)
	if m.OutputLen > 1 {
		t.tpot.add(float64(m.TPOT()) / 1e6)
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

// merge folds o's accumulators into st. Counters add and series merge,
// so merged quantiles are independent of the merge grouping; SLO
// configurations must match (each side already judged its requests).
func (st *StreamStats) merge(o *StreamStats) {
	if !st.sameSLOs(o.slo, o.tierSLOs) {
		panic(fmt.Sprintf("serve: merging Results judged against different SLOs: (%+v, %v) vs (%+v, %v)",
			st.slo, st.tierSLOs, o.slo, o.tierSLOs))
	}
	for _, ot := range o.Tiers {
		t := st.tier(ot.Priority)
		t.Requests += ot.Requests
		t.Rejected += ot.Rejected
		t.Met += ot.Met
		t.Tokens += ot.Tokens
		t.GoodTokens += ot.GoodTokens
		t.ttft.merge(&ot.ttft)
		t.tpot.merge(&ot.tpot)
		t.e2e.merge(&ot.e2e)
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

// summary builds the aggregate Summary: percentiles over the pooled
// (tier-merged) series, attainment counting rejections as misses,
// throughput and goodput over the Result's makespan.
func (st *StreamStats) summary(r *Result, byTier bool) Summary {
	s := Summary{
		Iterations: r.Iterations,
		MakespanS:  float64(r.Makespan) / 1e9,
	}
	ttft, tpot, e2e := newSeries(st.exact), newSeries(st.exact), newSeries(st.exact)
	var tokens, goodTokens, met int64
	for _, t := range st.Tiers {
		ttft.merge(&t.ttft)
		tpot.merge(&t.tpot)
		e2e.merge(&t.e2e)
		s.Requests += int(t.Requests)
		s.Rejected += int(t.Rejected)
		tokens += t.Tokens
		goodTokens += t.GoodTokens
		met += t.Met
	}
	if s.Requests == 0 {
		return s
	}
	ttftQ, tpotQ, e2eQ := ttft.quantiles(), tpot.quantiles(), e2e.quantiles()
	s.TTFTp50ms = ttftQ.Percentile(50)
	s.TTFTp90ms = ttftQ.Percentile(90)
	s.TTFTp99ms = ttftQ.Percentile(99)
	s.TPOTp50ms = tpotQ.Percentile(50)
	s.TPOTp99ms = tpotQ.Percentile(99)
	s.E2Ep50ms = e2eQ.Percentile(50)
	s.E2Ep99ms = e2eQ.Percentile(99)
	if r.Makespan > 0 {
		s.ThroughputTokS = float64(tokens) / (float64(r.Makespan) / 1e9)
		s.GoodputTokS = float64(goodTokens) / (float64(r.Makespan) / 1e9)
	}
	s.SLOAttainment = float64(met) / float64(s.Requests)
	if byTier {
		s.ByTier = make([]TierSummary, 0, len(st.Tiers))
		for _, t := range st.Tiers {
			q := t.ttft.quantiles()
			ts := TierSummary{
				Priority:      t.Priority,
				Requests:      int(t.Requests),
				Rejected:      int(t.Rejected),
				SLOAttainment: float64(t.Met) / float64(t.Requests),
				TTFTp50ms:     q.Percentile(50),
				TTFTp99ms:     q.Percentile(99),
			}
			if r.Makespan > 0 {
				ts.GoodputTokS = float64(t.GoodTokens) / (float64(r.Makespan) / 1e9)
			}
			s.ByTier = append(s.ByTier, ts)
		}
	}
	return s
}
