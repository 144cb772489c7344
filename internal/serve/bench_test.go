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

// benchConfig is the benchmarks' replica: one Llama3-70B TP=8 engine with
// a 1 GiB whole-request KV budget.
func benchConfig(metrics MetricsMode) Config {
	cfg := testConfig()
	cfg.MaxBatch = 32
	cfg.KVCapacityBytes = 1 << 30
	cfg.ChunkTokens = 512
	cfg.Metrics = metrics
	cfg.SLO = SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond}
	return cfg
}

func benchServe(b *testing.B, cfg Config, wl Workload) *RoutedResult {
	b.Helper()
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
	return benchSink
}

// The Callback names keep the committed benchmark-gate keys valid.
func BenchmarkServeCallbackStream(b *testing.B) {
	benchServe(b, benchConfig(MetricsStream), benchWorkload())
}
func BenchmarkServeCallbackExact(b *testing.B) {
	benchServe(b, benchConfig(MetricsExact), benchWorkload())
}

// BenchmarkServePaged times the paged-KV scheduler iteration: the same
// lengths at 8 req/s on 16-token blocks from a 128 MiB budget. Decode
// growth preempts about 130 times per trace (mostly swaps) while the
// waiting queue stays short (mean 2, peak 16), so the run measures block
// growth and victim selection rather than the admission scan.
func BenchmarkServePaged(b *testing.B) {
	cfg := benchConfig(MetricsStream)
	cfg.KVPolicy = KVPaged
	cfg.KVCapacityBytes = 128 << 20
	wl := Poisson(6001, 2000, 8, LogNormalLen(256, 0.6, 1024), LogNormalLen(32, 0.5, 96))
	if res := benchServe(b, cfg, wl); res.Merged.Preemptions == 0 {
		b.Fatal("the paged trace never preempted")
	}
}

// BenchmarkStreamObserve isolates the per-completion metrics cost under
// MetricsStream: one observe call per op on a warm two-tier accumulator.
func BenchmarkStreamObserve(b *testing.B) {
	st := newStreamStats(MetricsStream, SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond},
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
