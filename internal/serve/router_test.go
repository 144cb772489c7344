package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// fakeReplicas builds n schedulers on a throwaway engine so policy picks
// can be exercised without running a simulation.
func fakeReplicas(t *testing.T, n int) []*Scheduler {
	t.Helper()
	eng := sim.NewEngine()
	reps := make([]*Scheduler, n)
	for i := range reps {
		s, err := NewScheduler(eng, "r", testConfig())
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = s
	}
	return reps
}

func TestRoundRobinPolicy(t *testing.T) {
	reps := fakeReplicas(t, 3)
	p := NewRoundRobin()
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := p.Pick(Request{ID: i}, reps); got != w {
			t.Fatalf("pick %d: replica %d, want %d", i, got, w)
		}
	}
}

func TestJSQPolicy(t *testing.T) {
	reps := fakeReplicas(t, 3)
	p := NewJSQ()
	// All empty: ties break toward the lowest index.
	if got := p.Pick(Request{}, reps); got != 0 {
		t.Fatalf("empty-cluster pick = %d, want 0", got)
	}
	// Load replicas 0 and 2; the emptiest (1) must win, and the signal is
	// tokens, not request count: replica 0 holds one huge request, replica
	// 2 two small ones, so after 1 it must be 2, not 0.
	reps[0].inflight = 8192
	reps[2].inflight = 64 + 64
	if got := p.Pick(Request{}, reps); got != 1 {
		t.Fatalf("pick = %d, want least-loaded 1", got)
	}
	reps[1].inflight = 100000
	if got := p.Pick(Request{}, reps); got != 2 {
		t.Fatalf("pick = %d, want token-least 2 (JSQ must weigh tokens, not request count)", got)
	}
}

func TestPrefixAffinityPolicy(t *testing.T) {
	reps := fakeReplicas(t, 3)
	p := NewPrefixAffinity()
	// Same group always pins to the same replica, regardless of load.
	first := p.Pick(Request{PrefixGroup: 42, PrefixLen: 10}, reps)
	reps[first].inflight = 1 << 40
	for i := 0; i < 5; i++ {
		if got := p.Pick(Request{ID: i, PrefixGroup: 42, PrefixLen: 10}, reps); got != first {
			t.Fatalf("group 42 pick %d moved to replica %d (pinned to %d)", i, got, first)
		}
	}
	// Ungrouped requests fall back to JSQ and avoid the loaded replica.
	if got := p.Pick(Request{}, reps); got == first {
		t.Fatalf("ungrouped request routed to the overloaded pinned replica %d", got)
	}
	// Groups spread: 64 groups over 3 replicas must hit every replica.
	seen := map[int]bool{}
	for g := uint64(1); g <= 64; g++ {
		seen[p.Pick(Request{PrefixGroup: g, PrefixLen: 1}, reps)] = true
	}
	if len(seen) != 3 {
		t.Errorf("64 groups landed on only %d of 3 replicas", len(seen))
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"rr": "round-robin", "round-robin": "round-robin",
		"jsq":      "jsq",
		"affinity": "prefix-affinity", "prefix-affinity": "prefix-affinity",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	names := PolicyNames()
	if len(names) != 3 {
		t.Errorf("PolicyNames() = %v, want 3 canonical names", names)
	}
}

// TestRouterValidation covers rejected deployment configurations, each
// an error rather than a panic, and workloads.
func TestRouterValidation(t *testing.T) {
	wl, err := Trace("one", []Request{{PromptLen: 8, OutputLen: 2}})
	if err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.AR = nil
	static := func(max int, interval, delay sim.Duration) *Scale {
		return &Scale{Policy: NewStaticScale(), Max: max, Interval: interval, ProvisionDelay: delay}
	}
	for _, tc := range []struct {
		name string
		rc   RouterConfig
	}{
		{"zero replicas", RouterConfig{Replicas: 0, Replica: testConfig()}},
		{"invalid replica config", RouterConfig{Replicas: 2, Replica: bad}},
		{"negative decode", RouterConfig{Replicas: 2, Decode: -1, Replica: testConfig()}},
		{"scale with decode", RouterConfig{Replicas: 1, Decode: 1, Replica: testConfig(), Scale: static(2, 0, 0)}},
		{"nil scale policy", RouterConfig{Replicas: 1, Replica: testConfig(), Scale: &Scale{Max: 2}}},
		{"max below replicas", RouterConfig{Replicas: 3, Replica: testConfig(), Scale: static(2, 0, 0)}},
		{"negative interval", RouterConfig{Replicas: 1, Replica: testConfig(), Scale: static(2, -1, 0)}},
		{"negative provision delay", RouterConfig{Replicas: 1, Replica: testConfig(), Scale: static(2, 0, -1)}},
	} {
		if _, err := RunRouted(tc.rc, wl); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	cfg := testConfig()
	cfg.KVCapacityBytes = 1 // no request can ever fit: rejected, not errored
	rr, err := RunRouted(RouterConfig{Replicas: 2, Replica: cfg}, wl)
	if err != nil {
		t.Fatalf("never-fit requests must reject, not error: %v", err)
	}
	if rr.Merged.Rejected != 1 || len(rr.Merged.PerRequest) != 1 || !rr.Merged.PerRequest[0].Rejected {
		t.Errorf("impossible workload not recorded as rejection: %+v", rr.Merged)
	}
}

// TestRouterSingleReplicaEquivalence: a 1-replica routed run is the same
// simulation as a plain Run — bit-identical per-request metrics — for
// every policy. The router must add routing, not perturb the engine.
func TestRouterSingleReplicaEquivalence(t *testing.T) {
	wl := Poisson(77, 60, 10, LogNormalLen(256, 0.6, 1024), UniformLen(8, 64))
	base, err := Run(testConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	jbase, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		routed, err := RunRouted(RouterConfig{Replicas: 1, Policy: pol, Replica: testConfig()}, wl)
		if err != nil {
			t.Fatal(err)
		}
		jrep, err := json.Marshal(routed.PerReplica[0])
		if err != nil {
			t.Fatal(err)
		}
		if string(jrep) != string(jbase) {
			t.Errorf("policy %s: 1-replica routed result differs from plain Run", name)
		}
		if routed.Merged.Iterations != base.Iterations || routed.Merged.Makespan != base.Makespan {
			t.Errorf("policy %s: merged view drifted: %d/%d iterations, %d/%d makespan",
				name, routed.Merged.Iterations, base.Iterations, routed.Merged.Makespan, base.Makespan)
		}
	}
}

// TestRouterBalance: under round-robin, requests split evenly; under JSQ,
// every request lands somewhere and the merged result conserves the
// workload.
func TestRouterBalance(t *testing.T) {
	wl := Poisson(55, 90, 15, LogNormalLen(256, 0.6, 1024), UniformLen(8, 64))
	for _, name := range []string{"round-robin", "jsq"} {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRouted(RouterConfig{Replicas: 3, Policy: pol, Replica: testConfig()}, wl)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i, pr := range res.PerReplica {
			total += len(pr.PerRequest)
			if name == "round-robin" && len(pr.PerRequest) != 30 {
				t.Errorf("round-robin replica %d completed %d requests, want 30", i, len(pr.PerRequest))
			}
		}
		if total != 90 || len(res.Merged.PerRequest) != 90 {
			t.Fatalf("policy %s: %d per-replica / %d merged completions, want 90", name, total, len(res.Merged.PerRequest))
		}
		// Merged records are ID-ordered and cover every request exactly once.
		for i, m := range res.Merged.PerRequest {
			if m.ID != i {
				t.Fatalf("policy %s: merged record %d has ID %d", name, i, m.ID)
			}
		}
	}
}

// TestPrefixAffinityHits: with prefix groups pinned, every group member
// after the first gets a prefix hit and a strictly earlier first token
// than the same workload without grouping.
func TestPrefixAffinityHits(t *testing.T) {
	base := Poisson(66, 80, 12, FixedLen(600), FixedLen(16))
	grouped := WithPrefixGroups(base, 660, 4, 1.0, 512)
	pol, err := PolicyByName("affinity")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRouted(RouterConfig{Replicas: 2, Policy: pol, Replica: testConfig()}, grouped)
	if err != nil {
		t.Fatal(err)
	}
	hits, groups := 0, map[uint64]bool{}
	for _, r := range grouped.Requests {
		groups[r.PrefixGroup] = true
	}
	for _, m := range res.Merged.PerRequest {
		if m.PrefixHit {
			hits++
		}
	}
	// Every request is grouped and each group pins to one replica. The
	// first member of each group always misses, and members admitted while
	// the group's first prefill is still in flight miss too (the cache is
	// marked resident only at prefill completion) — so hits are bounded
	// above by one cold miss per group, and at this arrival rate most
	// members must land after their group's prefix is resident.
	max := len(grouped.Requests) - len(groups)
	if hits > max {
		t.Errorf("prefix hits = %d, above the %d bound (at least one cold miss per group)", hits, max)
	}
	if hits < max/2 {
		t.Errorf("prefix hits = %d of %d possible — affinity pinning produced almost no reuse", hits, max)
	}

	// The discount must show up as latency saved: the same arrivals without
	// grouping prefill all 600 tokens per request instead of 88, so the
	// grouped run's mean TTFT must be strictly lower.
	polU, _ := PolicyByName("affinity")
	ung, err := RunRouted(RouterConfig{Replicas: 2, Policy: polU, Replica: testConfig()}, base)
	if err != nil {
		t.Fatal(err)
	}
	meanTTFT := func(r *Result) float64 {
		var sum float64
		for _, m := range r.PerRequest {
			sum += float64(m.TTFT())
		}
		return sum / float64(len(r.PerRequest))
	}
	if g, u := meanTTFT(res.Merged), meanTTFT(ung.Merged); g >= u {
		t.Errorf("grouped mean TTFT %.0f ns is not below ungrouped %.0f ns — prefix reuse saved no latency", g, u)
	}
}

// TestRoutedDeterministicReplay is the router's acceptance gate, extending
// the 220-request single-replica pattern: a seeded 300-request Poisson
// workload routed by JSQ across 3 replicas over the real
// simulated-collective timer replays with bit-identical merged and
// per-replica metrics across runs.
func TestRoutedDeterministicReplay(t *testing.T) {
	run := func() *RoutedResult {
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
		wl := Poisson(2027, 300, 20, LogNormalLen(384, 0.6, 1024), LogNormalLen(48, 0.5, 128))
		res, err := RunRouted(RouterConfig{Replicas: 3, Policy: NewJSQ(), Replica: cfg}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Merged.PerRequest) != 300 {
		t.Fatalf("completed %d requests, want 300", len(a.Merged.PerRequest))
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
		t.Fatal("two JSQ routed replays of the same seeded workload produced different metrics")
	}
	// JSQ must actually have spread the work: no replica idle, no replica
	// hoarding.
	for i, pr := range a.PerReplica {
		if n := len(pr.PerRequest); n < 50 || n > 200 {
			t.Errorf("replica %d completed %d of 300 requests — JSQ imbalance", i, n)
		}
	}
	sum := a.Summarize(SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 200 * sim.Millisecond})
	if sum.Requests != 300 || sum.ThroughputTokS <= 0 {
		t.Errorf("degenerate merged summary: %+v", sum)
	}
}

// TestMergeResults: pooling invariants the router's aggregation depends
// on — merging per-replica results equals summarizing the pooled samples,
// and merging is associative.
func TestMergeResults(t *testing.T) {
	wl := Poisson(88, 120, 15, LogNormalLen(256, 0.6, 1024), UniformLen(8, 64))
	full, err := Run(testConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministically scatter the records over three parts.
	parts := make([]*Result, 3)
	for i := range parts {
		parts[i] = &Result{Workload: full.Workload}
	}
	rng := NewRNG(3)
	for _, m := range full.PerRequest {
		i := rng.Intn(3)
		parts[i].PerRequest = append(parts[i].PerRequest, m)
	}
	total := 0
	for i, p := range parts {
		p.Iterations = full.Iterations / 3
		if i == 0 {
			p.Iterations += full.Iterations % 3
		}
		total += len(p.PerRequest)
	}
	if total != len(full.PerRequest) {
		t.Fatalf("scatter lost records: %d != %d", total, len(full.PerRequest))
	}

	slo := SLO{MaxTTFT: 500 * sim.Millisecond, MaxTPOT: 100 * sim.Millisecond}
	merged := MergeResults(parts...)
	if got, want := merged.Summarize(slo), full.Summarize(slo); !reflect.DeepEqual(got, want) {
		t.Errorf("merged summary differs from pooled:\n got %+v\nwant %+v", got, want)
	}
	if merged.Makespan != full.Makespan {
		t.Errorf("merged makespan %d != pooled %d", merged.Makespan, full.Makespan)
	}

	// Associativity: merge(merge(a,b),c) == merge(a,b,c), byte for byte.
	ab := MergeResults(parts[0], parts[1])
	left, err := json.Marshal(MergeResults(ab, parts[2]))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(left) != string(flat) {
		t.Error("MergeResults is not associative")
	}

	// Degenerate merges are well-defined.
	if e := MergeResults(); len(e.PerRequest) != 0 || e.Makespan != 0 {
		t.Errorf("empty merge not zero: %+v", e)
	}
	if e := MergeResults(nil, &Result{}); len(e.PerRequest) != 0 {
		t.Errorf("nil-part merge not zero: %+v", e)
	}
}
