package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// fakeAR is a deterministic stand-in for a simulated-collective timer: a
// fixed latency plus a bandwidth term. Using it keeps scheduler unit tests
// fast; the end-to-end determinism test below uses the real ARTimer.
func fakeAR(msg int64) sim.Duration {
	return 5*sim.Microsecond + sim.Duration(msg/100)
}

func testConfig() Config {
	return Config{
		Env:     topology.A100_80G(1),
		Model:   inference.Llama3x70B(8),
		AR:      fakeAR,
		Metrics: MetricsExact,
	}
}

// runSingle runs wl on one replica through RunRouted and returns the
// merged (cluster-level) result: completed rows plus up-front rejections.
func runSingle(cfg Config, wl Workload) (*Result, error) {
	res, err := RunRouted(RouterConfig{Replicas: 1, Replica: cfg}, wl)
	if err != nil {
		return nil, err
	}
	return res.Merged, nil
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("RNG diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if e := r.Exp(100); e < 0 {
			t.Fatalf("Exp negative: %g", e)
		}
	}
}

func TestPoissonWorkload(t *testing.T) {
	wl := Poisson(1, 500, 10, LogNormalLen(512, 0.6, 2048), UniformLen(16, 256))
	if len(wl.Requests) != 500 {
		t.Fatalf("got %d requests", len(wl.Requests))
	}
	var prev sim.Time
	for i, r := range wl.Requests {
		if r.Arrival < prev {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		prev = r.Arrival
		if r.PromptLen < 1 || r.PromptLen > 2048 {
			t.Fatalf("prompt len %d out of range", r.PromptLen)
		}
		if r.OutputLen < 16 || r.OutputLen > 256 {
			t.Fatalf("output len %d out of range", r.OutputLen)
		}
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
	}
	// Mean inter-arrival should be near 1/rate (within 20% over 500 draws).
	mean := float64(wl.Requests[len(wl.Requests)-1].Arrival) / float64(len(wl.Requests)) / 1e9
	if mean < 0.08 || mean > 0.12 {
		t.Errorf("mean inter-arrival %.4fs, want ~0.1s", mean)
	}
	// Same seed, same workload; different seed, different workload.
	if !reflect.DeepEqual(wl, Poisson(1, 500, 10, LogNormalLen(512, 0.6, 2048), UniformLen(16, 256))) {
		t.Error("identical seeds produced different workloads")
	}
	if reflect.DeepEqual(wl.Requests, Poisson(2, 500, 10, LogNormalLen(512, 0.6, 2048), UniformLen(16, 256)).Requests) {
		t.Error("different seeds produced identical workloads")
	}
}

func TestBurstyWorkload(t *testing.T) {
	base, burst := 2.0, 40.0
	wl := Bursty(9, 400, base, burst, 5*sim.Second, 1*sim.Second, FixedLen(256), FixedLen(64))
	var prev sim.Time
	for i, r := range wl.Requests {
		if r.Arrival < prev {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		prev = r.Arrival
	}
	// The overall rate must sit strictly between base and burst.
	overall := float64(len(wl.Requests)) / (float64(prev) / 1e9)
	if overall <= base || overall >= burst {
		t.Errorf("overall rate %.2f qps not between %.0f and %.0f", overall, base, burst)
	}
}

func TestTraceReplay(t *testing.T) {
	wl, err := Trace("t", []Request{
		{Arrival: 3 * sim.Second, PromptLen: 100, OutputLen: 10},
		{Arrival: 1 * sim.Second, PromptLen: 200, OutputLen: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Requests[0].Arrival != 1*sim.Second || wl.Requests[0].ID != 0 {
		t.Errorf("trace not sorted/re-IDed: %+v", wl.Requests[0])
	}
	if _, err := Trace("bad", []Request{{PromptLen: 0, OutputLen: 5}}); err == nil {
		t.Error("trace accepted zero-length prompt")
	}
	if _, err := Trace("bad", []Request{{Arrival: -1, PromptLen: 1, OutputLen: 1}}); err == nil {
		t.Error("trace accepted negative arrival")
	}
}

// TestSchedulerBasics replays a tiny trace and checks the lifecycle
// invariants every request must satisfy.
func TestSchedulerBasics(t *testing.T) {
	wl, err := Trace("basic", []Request{
		{Arrival: 0, PromptLen: 700, OutputLen: 8},
		{Arrival: 0, PromptLen: 300, OutputLen: 1}, // single-token: done at prefill
		{Arrival: 2 * sim.Second, PromptLen: 100, OutputLen: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSingle(testConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRequest) != 3 {
		t.Fatalf("completed %d requests, want 3", len(res.PerRequest))
	}
	for _, m := range res.PerRequest {
		if m.Admitted < m.Arrival || m.FirstToken <= m.Admitted || m.Done < m.FirstToken {
			t.Errorf("request %d: inconsistent lifecycle %+v", m.ID, m)
		}
		if m.OutputLen == 1 && m.Done != m.FirstToken {
			t.Errorf("single-token request %d: done %d != first token %d", m.ID, m.Done, m.FirstToken)
		}
		if m.OutputLen > 1 && m.TPOT() <= 0 {
			t.Errorf("request %d: non-positive TPOT", m.ID)
		}
	}
	if res.Makespan <= 0 || res.Iterations <= 0 {
		t.Errorf("degenerate result: makespan %d, iterations %d", res.Makespan, res.Iterations)
	}
	// Request 0 needs two 512-token prefill chunks; request 2 arrives 2s
	// later and must not have been waited for.
	byID := map[int]RequestMetrics{}
	for _, m := range res.PerRequest {
		byID[m.ID] = m
	}
	// FIFO chunking: the head of the queue never sees first-token later
	// than a request behind it (here both finish in iteration 2: 512+188
	// for request 0, then 300 of the remaining 324-token budget for 1).
	if byID[0].FirstToken > byID[1].FirstToken {
		t.Errorf("FIFO violated: head first-token %d after follower %d", byID[0].FirstToken, byID[1].FirstToken)
	}
	if byID[2].Admitted < 2*sim.Second {
		t.Errorf("request 2 admitted at %d before its arrival", byID[2].Admitted)
	}
}

// TestKVAdmissionGate: with capacity for only one resident request, the
// second must queue until the first completes, even though MaxBatch allows
// both.
func TestKVAdmissionGate(t *testing.T) {
	cfg := testConfig()
	perTok := cfg.Model.KVBytesPerTokenPerGPU
	cfg.KVCapacityBytes = 150 * perTok // one 100+20 request fits, two do not
	wl, err := Trace("kv", []Request{
		{Arrival: 0, PromptLen: 100, OutputLen: 20},
		{Arrival: 0, PromptLen: 100, OutputLen: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSingle(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]RequestMetrics{}
	for _, m := range res.PerRequest {
		byID[m.ID] = m
	}
	if byID[1].Admitted < byID[0].Done {
		t.Errorf("request 1 admitted at %d before request 0 released KV at %d",
			byID[1].Admitted, byID[0].Done)
	}
	if byID[1].QueueDelay() <= 0 {
		t.Error("request 1 should have queued behind the KV gate")
	}

	// A request that can never fit is rejected up front as a structured
	// per-request outcome — not a hard error, not a deadlock.
	cfg.KVCapacityBytes = 10 * perTok
	res, err = runSingle(cfg, wl)
	if err != nil {
		t.Fatalf("never-fit requests must reject, not error: %v", err)
	}
	if res.Rejected != 2 {
		t.Errorf("rejected = %d, want 2 (every request exceeds 10 tokens of KV)", res.Rejected)
	}
	for _, m := range res.PerRequest {
		if !m.Rejected || m.RejectedReason != "kv-capacity" {
			t.Errorf("request %d: not marked rejected: %+v", m.ID, m)
		}
		if m.Admitted != 0 || m.FirstToken != 0 || m.Done != 0 {
			t.Errorf("request %d: rejected row carries lifecycle timestamps: %+v", m.ID, m)
		}
	}
}

// TestMaxBatchBound: admissions never exceed MaxBatch concurrently. With
// batch size 1 the requests serialize completely.
func TestMaxBatchBound(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 1
	wl, err := Trace("serial", []Request{
		{Arrival: 0, PromptLen: 64, OutputLen: 4},
		{Arrival: 0, PromptLen: 64, OutputLen: 4},
		{Arrival: 0, PromptLen: 64, OutputLen: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSingle(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]RequestMetrics{}
	for _, m := range res.PerRequest {
		byID[m.ID] = m
	}
	for i := 1; i < 3; i++ {
		if byID[i].Admitted < byID[i-1].Done {
			t.Errorf("request %d admitted at %d while request %d still resident until %d",
				i, byID[i].Admitted, i-1, byID[i-1].Done)
		}
	}
}

// TestChunkedPrefill: a long prompt is spread over ceil(prompt/chunk)
// iterations, during which an already-running request keeps decoding (its
// TPOT may stretch but tokens keep flowing).
func TestChunkedPrefill(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkTokens = 128
	wl, err := Trace("chunk", []Request{
		{Arrival: 0, PromptLen: 1024, OutputLen: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSingle(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	// 1024/128 = 8 prefill iterations + 1 decode iteration.
	if res.Iterations != 9 {
		t.Errorf("iterations = %d, want 9 (8 prefill chunks + 1 decode)", res.Iterations)
	}
}

// TestDeterministicReplay is the acceptance gate: a seeded 200+-request
// Poisson workload over the real simulated-collective timer replays with
// bit-identical metrics across runs.
func TestDeterministicReplay(t *testing.T) {
	run := func() *Result {
		envFn := func() *topology.Env { return topology.A100_80G(1) }
		cfg := Config{
			Env:             envFn(),
			Model:           inference.Llama3x70B(8),
			AR:              inference.NewARTimer(envFn, inference.LibMSCCLPP).Time,
			MaxBatch:        16,
			KVCapacityBytes: 2 << 30,
			ChunkTokens:     512,
			Metrics:         MetricsExact,
		}
		wl := Poisson(2026, 220, 12, LogNormalLen(384, 0.6, 1024), LogNormalLen(48, 0.5, 128))
		res, err := runSingle(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.PerRequest) != 220 {
		t.Fatalf("completed %d requests, want 220", len(a.PerRequest))
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("two replays of the same seeded workload produced different metrics")
	}
	// Sanity on the aggregate view.
	sum := a.Summarize(SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 200 * sim.Millisecond})
	if sum.Requests != 220 || sum.ThroughputTokS <= 0 {
		t.Errorf("degenerate summary: %+v", sum)
	}
	if sum.GoodputTokS > sum.ThroughputTokS {
		t.Errorf("goodput %.1f exceeds throughput %.1f", sum.GoodputTokS, sum.ThroughputTokS)
	}
	if sum.SLOAttainment < 0 || sum.SLOAttainment > 1 {
		t.Errorf("SLO attainment %.3f out of range", sum.SLOAttainment)
	}
	if sum.TTFTp50ms > sum.TTFTp99ms || sum.E2Ep50ms > sum.E2Ep99ms {
		t.Errorf("percentiles not ordered: %+v", sum)
	}
}

// TestConfigValidation covers the rejected configurations.
func TestConfigValidation(t *testing.T) {
	wl, err := Trace("one", []Request{{PromptLen: 8, OutputLen: 2}})
	if err != nil {
		t.Fatal(err)
	}
	env, model := topology.A100_80G(1), inference.Llama3x70B(8)
	bad := []struct {
		field string // named in the validation error
		cfg   Config
	}{
		{"Env", Config{Env: nil, Model: model, AR: fakeAR}},
		{"AR", Config{Env: env, Model: model, AR: nil}},
		{"MaxBatch", Config{Env: env, Model: model, AR: fakeAR, MaxBatch: -1}},
		{"KVCapacityBytes", Config{Env: env, Model: model, AR: fakeAR, KVCapacityBytes: -1}},
		{"ChunkTokens", Config{Env: env, Model: model, AR: fakeAR, ChunkTokens: -1}},
		{"KVPolicy", Config{Env: env, Model: model, AR: fakeAR, KVPolicy: KVPaged + 1}},
		{"BlockTokens", Config{Env: env, Model: model, AR: fakeAR, BlockTokens: -1}},
		{"Preempt", Config{Env: env, Model: model, AR: fakeAR, Preempt: PreemptSwap + 1}},
		{"Admission", Config{Env: env, Model: model, AR: fakeAR, Admission: AdmitDecodeFirst + 1}},
		{"Metrics", Config{Env: env, Model: model, AR: fakeAR, Metrics: MetricsExact + 1}},
		// A budget below one block: 1 token under KVReserve, BlockTokens
		// under KVPaged.
		{"KVCapacityBytes", Config{Env: env, Model: model, AR: fakeAR,
			KVCapacityBytes: model.KVBytesPerTokenPerGPU - 1}},
		{"KVCapacityBytes", Config{Env: env, Model: model, AR: fakeAR, KVPolicy: KVPaged,
			KVCapacityBytes: 16*model.KVBytesPerTokenPerGPU - 1}},
	}
	for _, b := range bad {
		_, err := runSingle(b.cfg, wl)
		if err == nil {
			t.Errorf("bad %s accepted", b.field)
		} else if !strings.Contains(err.Error(), b.field) {
			t.Errorf("bad %s rejected for another reason: %v", b.field, err)
		}
	}
	// A model without KV accounting is rejected.
	cfg := testConfig()
	cfg.Model.KVBytesPerTokenPerGPU = 0
	if _, err := runSingle(cfg, wl); err == nil || !strings.Contains(err.Error(), "KVBytesPerTokenPerGPU") {
		t.Errorf("model without KV bytes: err = %v", err)
	}
	// Exactly one block is a valid budget under either policy.
	for _, c := range []Config{
		{Env: env, Model: model, AR: fakeAR, KVCapacityBytes: model.KVBytesPerTokenPerGPU},
		{Env: env, Model: model, AR: fakeAR, KVPolicy: KVPaged, KVCapacityBytes: 16 * model.KVBytesPerTokenPerGPU},
	} {
		if c = c.withDefaults(); c.validate() != nil {
			t.Errorf("policy %d: one-block budget rejected: %v", c.KVPolicy, c.validate())
		}
	}
}

// TestSummaryEmpty: summarizing an empty result is well-defined.
func TestSummaryEmpty(t *testing.T) {
	r := &Result{}
	s := r.Summarize(SLO{})
	if s.Requests != 0 || s.ThroughputTokS != 0 || s.SLOAttainment != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}
