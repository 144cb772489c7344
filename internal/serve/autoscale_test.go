package serve

// Acceptance tests for the autoscaling control plane: bit-identical
// deterministic replay of a two-tenant SLO-PID run, graceful-drain
// invariants under a deliberately chattering policy, the workload
// composition helpers the
// multi-tenant economics ride on, and a hand-computed pin of the gpu
// resource counters the control loop samples.

import (
	"encoding/json"
	"testing"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// autoscaleTestConfig is the shared replica engine of the autoscaler
// tests: the routed-replay configuration plus the SLO objectives the
// control loop's attainment signal needs.
func autoscaleTestConfig() Config {
	envFn := func() *topology.Env { return topology.A100_80G(1) }
	return Config{
		Env:             envFn(),
		Model:           inference.Llama3x70B(8),
		AR:              inference.NewARTimer(envFn, inference.LibMSCCLPP).Time,
		MaxBatch:        16,
		KVCapacityBytes: 2 << 30,
		ChunkTokens:     512,
		Metrics:         MetricsExact,
		SLO:             SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 200 * sim.Millisecond},
		TierSLOs:        map[int]SLO{1: {MaxTTFT: 20 * sim.Second, MaxTPOT: 400 * sim.Millisecond}},
	}
}

// autoscaleTestWorkload is the two-tenant stream of the replay tests: a
// diurnal interactive tenant expanded into multi-turn sessions plus a
// bursty batch tenant, 300+ requests total.
func autoscaleTestWorkload() Workload {
	chat := Diurnal(3001, 150, 8, 0.25, 60*sim.Second, LogNormalLen(256, 0.6, 1024), LogNormalLen(32, 0.5, 96))
	chat = WithSessions(chat, 3002, 2, 3, 5*sim.Second, 2048)
	batch := Bursty(3003, 120, 2, 8, 20*sim.Second, 10*sim.Second, LogNormalLen(384, 0.6, 1024), LogNormalLen(48, 0.5, 128))
	for i := range batch.Requests {
		batch.Requests[i].Priority = 1
	}
	return MergeWorkloads("autoscale-replay", chat, batch)
}

// TestAutoscaledDeterministicReplay is the autoscaler's acceptance gate,
// extending the routed pattern: a two-tenant 300+ request stream under
// the SLO-PID policy replays with bit-identical JSON — fleet timeline,
// drain audit, control samples, economics and per-request metrics —
// across runs.
func TestAutoscaledDeterministicReplay(t *testing.T) {
	wl := autoscaleTestWorkload()
	if len(wl.Requests) < 300 {
		t.Fatalf("replay workload has %d requests, want >= 300", len(wl.Requests))
	}
	run := func() *RoutedResult {
		res, err := RunRouted(RouterConfig{
			Replicas: 2,
			Replica:  autoscaleTestConfig(),
			Scale:    &Scale{Policy: NewSLOPID(), Max: 3, Interval: 10 * sim.Second, ProvisionDelay: 20 * sim.Second},
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("two autoscaled replays of the same seeded workload produced different results")
	}
	if got := len(a.Merged.PerRequest); got != len(wl.Requests) {
		t.Fatalf("merged result has %d rows, want %d", got, len(wl.Requests))
	}
	if len(a.Samples) < 5 {
		t.Fatalf("control loop sampled %d times over the run", len(a.Samples))
	}
	if a.Econ.GPUHours <= 0 || a.Econ.PeakReplicas < 1 || a.Econ.GoodTokens <= 0 {
		t.Fatalf("degenerate economics: %+v", a.Econ)
	}
	sum := a.Summarize(SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 200 * sim.Millisecond})
	if sum.Requests != len(wl.Requests) || sum.ThroughputTokS <= 0 {
		t.Fatalf("degenerate merged summary: %+v", sum)
	}
	pinDigest(t, "aee18471aae804be", a.Merged, a.PerReplica, a.Fleet, a.Drains, a.Samples, a.Econ,
		[]int{a.ScaleUps, a.ScaleDowns})
}

// flipPolicy is a deliberately chattering test policy: it demands the
// fleet maximum for two intervals, then the minimum for two, forcing the
// full provision/cancel/drain/retire machinery to cycle continuously.
type flipPolicy struct{ n int }

func (*flipPolicy) Name() string { return "flip" }

func (p *flipPolicy) Desired(sig ScaleSignals) int {
	p.n++
	if p.n%4 < 2 {
		return sig.Max
	}
	return sig.Min
}

// TestAutoscaleDrainInvariants drives constant scale churn and checks the
// graceful-drain contract on every scale-down: nothing routed to a
// replica after it entered draining, every resident completed locally
// before retirement, zero stranded requests, and conservation of the
// request stream across the whole fleet.
func TestAutoscaleDrainInvariants(t *testing.T) {
	wl := autoscaleTestWorkload()
	res, err := RunRouted(RouterConfig{
		Replicas: 3,
		Replica:  autoscaleTestConfig(),
		Scale:    &Scale{Policy: &flipPolicy{}, Max: 3, Interval: 5 * sim.Second, ProvisionDelay: 8 * sim.Second},
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Drains) == 0 {
		t.Fatal("the flip policy produced no drains — the churn harness is inert")
	}
	drainOf := make(map[int]DrainEvent)
	for _, d := range res.Drains {
		if d.Stranded != 0 {
			t.Errorf("drained replica %d stranded %d requests", d.Replica, d.Stranded)
		}
		if d.RetiredNs < d.TimeNs {
			t.Errorf("drained replica %d retired at %d before its drain at %d", d.Replica, d.RetiredNs, d.TimeNs)
		}
		drainOf[d.Replica] = d
	}
	var total int
	for id, pr := range res.PerReplica {
		total += len(pr.PerRequest)
		d, drained := drainOf[id]
		if !drained {
			continue
		}
		// No admission after draining: every request the drained replica
		// completed was routed to it before the drain instant (the control
		// tick removes it from the routable set before arrivals at the same
		// timestamp), and residents all completed by retirement.
		residents := 0
		for _, m := range pr.PerRequest {
			if m.Arrival > d.TimeNs {
				t.Errorf("replica %d completed request %d that arrived at %d, after its drain at %d",
					id, m.ID, m.Arrival, d.TimeNs)
			}
			if m.Done > d.RetiredNs {
				t.Errorf("replica %d finished request %d at %d, after retiring at %d", id, m.ID, m.Done, d.RetiredNs)
			}
			if m.Done > d.TimeNs {
				residents++
			}
		}
		if residents != d.Residents {
			t.Errorf("replica %d finished %d requests after its drain, audit recorded %d residents",
				id, residents, d.Residents)
		}
	}
	// Conservation: handoffs land on survivors; nothing is lost or run
	// twice (each merged row appears on exactly one replica).
	if total != len(wl.Requests) {
		t.Errorf("fleet completed %d requests, workload offered %d", total, len(wl.Requests))
	}
	pinDigest(t, "45046dff496dbdd2", res.Merged, res.PerReplica, res.Fleet, res.Drains, res.Samples, res.Econ,
		[]int{res.ScaleUps, res.ScaleDowns})
}

// TestDrainSchedulerContract pins the scheduler-level drain semantics:
// draining refuses new submissions, a second drain panics, and a fresh
// replica with no work retires immediately.
func TestDrainSchedulerContract(t *testing.T) {
	cfg := autoscaleTestConfig()
	eng := sim.NewEngine()
	s, err := NewScheduler(eng, "drainer", cfg)
	if err != nil {
		t.Fatal(err)
	}
	retired := false
	s.onRetired = func(sim.Time) { retired = true }
	eng.At(0, func() {
		if got := s.Drain(); len(got) != 0 {
			t.Errorf("empty replica handed off %d requests", len(got))
		}
		if !s.Draining() {
			t.Error("Draining() false after Drain")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Submit on a draining replica did not panic")
				}
			}()
			s.Submit(Request{ID: 1, PromptLen: 8, OutputLen: 2})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("second Drain did not panic")
				}
			}()
			s.Drain()
		}()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !retired {
		t.Error("an empty drained replica never retired")
	}
}

// TestMergeWorkloadsComposition: merged streams are arrival-sorted and
// re-IDed, and per-part prefix groups are re-keyed into disjoint
// namespaces so tenants cannot alias each other's prompt caches.
func TestMergeWorkloadsComposition(t *testing.T) {
	a := WithPrefixGroups(Poisson(1, 100, 20, FixedLen(64), FixedLen(8)), 11, 4, 1.0, 32)
	b := WithPrefixGroups(Poisson(2, 100, 20, FixedLen(64), FixedLen(8)), 12, 4, 1.0, 32)
	m := MergeWorkloads("pair", a, b)
	if len(m.Requests) != 200 {
		t.Fatalf("merged %d requests, want 200", len(m.Requests))
	}
	groupsA, groupsB := map[uint64]bool{}, map[uint64]bool{}
	for i, r := range m.Requests {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if i > 0 && r.Arrival < m.Requests[i-1].Arrival {
			t.Fatalf("merged arrivals out of order at %d", i)
		}
		if r.PrefixGroup == 0 {
			t.Fatalf("request %d lost its prefix group", i)
		}
	}
	// Recover each part's remapped groups via the per-part namespace: the
	// same source group must map identically within a part and never
	// collide across parts.
	for _, r := range a.Requests {
		groupsA[Mix64(Mix64(0+0x7e57a11c)^r.PrefixGroup)] = true
	}
	for _, r := range b.Requests {
		groupsB[Mix64(Mix64(1+0x7e57a11c)^r.PrefixGroup)] = true
	}
	for g := range groupsA {
		if groupsB[g] {
			t.Fatalf("prefix group %d appears in both tenants after the merge", g)
		}
	}
}

// TestWithSessionsShape: session expansion keeps every invariant the
// prefix cache depends on — turn counts in range, one unique nonzero
// group per session, follow-up prompts carrying the previous turn's full
// context as PrefixLen, arrivals sorted, priority inherited.
func TestWithSessionsShape(t *testing.T) {
	roots := WithPriorities(Poisson(9, 200, 10, UniformLen(64, 256), UniformLen(8, 32)), 10, 0.5)
	wl := WithSessions(roots, 77, 2, 4, 3*sim.Second, 1024)
	if len(wl.Requests) < 2*len(roots.Requests) {
		t.Fatalf("sessions expanded %d roots into only %d requests", len(roots.Requests), len(wl.Requests))
	}
	for i, r := range wl.Requests {
		if i > 0 && r.Arrival < wl.Requests[i-1].Arrival {
			t.Fatalf("session arrivals out of order at %d", i)
		}
		if r.PrefixGroup == 0 {
			t.Fatalf("request %d has no session group", i)
		}
		if r.PromptLen > 1024 {
			t.Fatalf("request %d prompt %d exceeds the cap", i, r.PromptLen)
		}
	}
	// Group requests into sessions and check per-session structure.
	type turn struct {
		prompt, output, prefix, prio int
		arrival                      sim.Time
	}
	sessions := map[uint64][]turn{}
	for _, r := range wl.Requests {
		sessions[r.PrefixGroup] = append(sessions[r.PrefixGroup],
			turn{r.PromptLen, r.OutputLen, r.PrefixLen, r.Priority, r.Arrival})
	}
	if len(sessions) != len(roots.Requests) {
		t.Fatalf("%d sessions for %d roots", len(sessions), len(roots.Requests))
	}
	for g, turns := range sessions {
		if len(turns) < 2 || len(turns) > 4 {
			t.Fatalf("session %d has %d turns, want 2..4", g, len(turns))
		}
		for k := 1; k < len(turns); k++ {
			prev, cur := turns[k-1], turns[k]
			if cur.arrival <= prev.arrival {
				t.Fatalf("session %d turn %d does not follow turn %d in time", g, k, k-1)
			}
			wantPrefix := prev.prompt + prev.output
			if wantPrefix > 1023 {
				wantPrefix = 1023
			}
			if cur.prefix != wantPrefix {
				t.Fatalf("session %d turn %d prefix %d, want previous context %d", g, k, cur.prefix, wantPrefix)
			}
			if cur.prompt <= cur.prefix {
				t.Fatalf("session %d turn %d prompt %d not beyond its prefix %d", g, k, cur.prompt, cur.prefix)
			}
			if cur.prio != prev.prio {
				t.Fatalf("session %d priority changed across turns", g)
			}
		}
	}
}

// TestGPUCounterHandComputed pins the per-replica gpu resource the
// control loop samples to hand-computed values: with non-overlapping
// requests, reservations equal priced iterations exactly and busy time
// equals the closed-form compute+comm sum — one prefill step plus one
// decode step per subsequent token, each with the scheduler overhead.
func TestGPUCounterHandComputed(t *testing.T) {
	ar := func(int64) sim.Duration { return 40 * sim.Microsecond }
	cfg := Config{
		Env:             topology.A100_80G(1),
		Model:           inference.Llama3x70B(8),
		AR:              ar,
		MaxBatch:        4,
		KVCapacityBytes: 2 << 30,
		ChunkTokens:     512,
		Metrics:         MetricsExact,
	}
	// Arrivals 20 s apart: each request finishes long before the next, so
	// every iteration serves exactly one request and the closed form below
	// is the whole story.
	reqs := []Request{
		{ID: 0, Arrival: 0, PromptLen: 200, OutputLen: 5},
		{ID: 1, Arrival: 20 * sim.Second, PromptLen: 333, OutputLen: 2},
		{ID: 2, Arrival: 40 * sim.Second, PromptLen: 512, OutputLen: 8},
	}
	wl, err := Trace("hand", reqs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}

	var wantIters uint64
	var wantBusy sim.Duration
	overhead := 100 * sim.Microsecond // the documented SchedOverhead default
	for _, r := range reqs {
		// Iteration 1 prefills the whole prompt (<= ChunkTokens) and emits
		// the first token; each later token is one single-sequence decode
		// iteration at context prompt+generated.
		wantIters += uint64(r.OutputLen)
		wantBusy += overhead + inference.PrefillStep(cfg.Env, cfg.Model, 1, r.PromptLen, ar)
		for j := 1; j < r.OutputLen; j++ {
			wantBusy += overhead + inference.DecodeStepCtx(cfg.Env, cfg.Model, 1, int64(r.PromptLen+j), ar)
		}
	}

	var gpu sim.ResourceStats
	found := false
	for _, g := range res.Counters {
		if g.Name == "gpu" && len(g.Stats) == 1 {
			gpu, found = g.Stats[0], true
		}
	}
	if !found {
		t.Fatal("no gpu counter group in the result")
	}
	if gpu.Reservations != uint64(res.Iterations) {
		t.Errorf("gpu reservations %d != priced iterations %d", gpu.Reservations, res.Iterations)
	}
	if gpu.Reservations != wantIters {
		t.Errorf("gpu reservations %d, hand computed %d", gpu.Reservations, wantIters)
	}
	if gpu.BusyNs != wantBusy {
		t.Errorf("gpu busy %d ns, hand computed %d ns", gpu.BusyNs, wantBusy)
	}
	if gpu.QueueDelayNs != 0 || gpu.MaxQueueDepth != 1 {
		t.Errorf("observe-only gpu resource saw contention: queue delay %d ns, max depth %d",
			gpu.QueueDelayNs, gpu.MaxQueueDepth)
	}
}

// TestScalePolicyRegistry: the name registry constructs fresh policies
// and rejects unknowns; clampReplicas repairs degenerate bounds.
func TestScalePolicyRegistry(t *testing.T) {
	for _, name := range ScalePolicyNames() {
		p, err := ScalePolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := ScalePolicyByName("nope"); err == nil {
		t.Error("unknown scale policy did not error")
	}
	cases := []struct{ n, max, want int }{
		{5, 4, 4},
		{0, 4, 1},
		{2, 4, 2},
		{3, 0, 1}, // degenerate bound repairs to [1, 1]
		{-10, 8, 1},
		{7, -3, 1}, // max below the floor snaps to 1
	}
	for _, c := range cases {
		if got := clampReplicas(c.n, c.max); got != c.want {
			t.Errorf("clampReplicas(%d, %d) = %d, want %d", c.n, c.max, got, c.want)
		}
	}
}
