package serve

// End-to-end single-replica benchmarks in both metrics modes, plus the
// streaming-observe hot path. These are the serve-side inputs to the
// CI bench-regression gate (cmd/benchgate against BENCH_serve.json):
// each benchmark iteration replays the same 2000-request seeded trace
// through a full engine run, so ns/op tracks simulator wall-clock per
// trace and req/s is reported as a derived metric.

import (
	"testing"

	"mscclpp/internal/sim"
)

var benchSink *RoutedResult

func benchWorkload() Workload {
	return Poisson(6001, 2000, 200, LogNormalLen(256, 0.6, 1024), LogNormalLen(32, 0.5, 96))
}

func benchServe(b *testing.B, metrics MetricsMode) {
	b.Helper()
	cfg := testConfig()
	cfg.MaxBatch = 32
	cfg.KVCapacityBytes = 1 << 30
	cfg.ChunkTokens = 512
	cfg.Metrics = metrics
	cfg.SLO = SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond}
	wl := benchWorkload()
	rc := RouterConfig{Replicas: 1, Replica: cfg}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunRouted(rc, wl)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
	b.ReportMetric(float64(len(wl.Requests))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// The Callback names keep the committed benchmark-gate keys valid.
func BenchmarkServeCallbackStream(b *testing.B) { benchServe(b, MetricsStream) }
func BenchmarkServeCallbackExact(b *testing.B)  { benchServe(b, MetricsExact) }

// BenchmarkStreamObserve isolates the per-completion metrics cost under
// MetricsStream: one observe call per op on a warm two-tier accumulator.
func BenchmarkStreamObserve(b *testing.B) {
	st := newStreamStats(SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond},
		map[int]SLO{1: {MaxTTFT: 4 * sim.Second, MaxTPOT: 40 * sim.Millisecond}})
	rng := NewRNG(77)
	rows := make([]RequestMetrics, 4096)
	for i := range rows {
		arr := sim.Time(rng.Intn(1_000_000_000))
		adm := arr + sim.Duration(1000+rng.Intn(1_000_000))
		first := adm + sim.Duration(1000+rng.Intn(10_000_000))
		out := 2 + rng.Intn(128)
		rows[i] = RequestMetrics{
			ID: i, PromptLen: 256, OutputLen: out, Priority: i & 1,
			Arrival: arr, Admitted: adm, FirstToken: first,
			Done: first + sim.Duration(out*int(50*sim.Microsecond)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.observe(rows[i%len(rows)])
	}
}
