package serve

// Serving-layer coverage of expert-parallel MoE pricing: a model with
// experts must route every priced iteration through the MoE step
// functions, book the all-to-all share on the moe-dispatch/moe-combine
// counter groups, and refuse to run without an all-to-all timer.

import (
	"testing"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func moeTestConfig() Config {
	envFn := func() *topology.Env { return topology.H100(2) }
	m := inference.DeepSeekV3MoE(16)
	ar := inference.NewARTimer(envFn, inference.LibMSCCLPP)
	ep := inference.NewEPTimer(envFn, m.MoE.Config, m.MoE.Transport)
	return Config{
		Env:             envFn(),
		Model:           m,
		AR:              ar.Time,
		A2A:             ep.Layer,
		MaxBatch:        8,
		KVCapacityBytes: 1 << 30,
		ChunkTokens:     256,
		Metrics:         MetricsExact,
	}
}

func TestMoEServeEndToEnd(t *testing.T) {
	wl := Poisson(4242, 24, 4, LogNormalLen(256, 0.5, 768), LogNormalLen(32, 0.4, 96))
	rr, err := RunRouted(RouterConfig{Replicas: 1, Replica: moeTestConfig()}, wl)
	if err != nil {
		t.Fatal(err)
	}
	res := rr.PerReplica[0]
	if got := len(res.PerRequest); got != 24 {
		t.Fatalf("completed %d of 24 requests", got)
	}
	for _, m := range res.PerRequest {
		if m.Rejected || m.Done <= m.FirstToken || m.FirstToken <= m.Arrival {
			t.Fatalf("request %d has a broken lifecycle: %+v", m.ID, m)
		}
	}
	// The all-to-all share must be booked: both groups present, busy, and
	// strictly inside the gpu resource's iteration time.
	var gpu, disp, comb *sim.ResourceStats
	for _, g := range res.Counters {
		g := g
		switch g.Name {
		case "gpu":
			gpu = &g.Stats[0]
		case "moe-dispatch":
			disp = &g.Stats[0]
		case "moe-combine":
			comb = &g.Stats[0]
		}
	}
	if gpu == nil || disp == nil || comb == nil {
		t.Fatalf("missing counter groups: gpu=%v dispatch=%v combine=%v", gpu != nil, disp != nil, comb != nil)
	}
	if disp.BusyNs <= 0 || comb.BusyNs <= 0 {
		t.Fatalf("all-to-all counters idle: dispatch %d ns, combine %d ns", disp.BusyNs, comb.BusyNs)
	}
	if comb.BusyNs <= disp.BusyNs {
		t.Fatalf("combine busy %d ns not above dispatch busy %d ns (2x bytes)", comb.BusyNs, disp.BusyNs)
	}
	if total := disp.BusyNs + comb.BusyNs; total >= gpu.BusyNs {
		t.Fatalf("all-to-all share %d ns not strictly inside iteration time %d ns", total, gpu.BusyNs)
	}
}

func TestMoEConfigRequiresA2A(t *testing.T) {
	cfg := moeTestConfig()
	cfg.A2A = nil
	wl := Poisson(1, 2, 4, FixedLen(64), FixedLen(8))
	if _, err := runSingle(cfg, wl); err == nil {
		t.Fatal("expected validation error for MoE model without Config.A2A")
	}
	// Dense models must not require A2A (and must not grow counter groups).
	dense := cfg
	dense.Model = inference.DeepSeekV3(16)
	res, err := RunRouted(RouterConfig{Replicas: 1, Replica: dense}, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.PerReplica[0].Counters {
		if g.Name == "moe-dispatch" || g.Name == "moe-combine" {
			t.Fatalf("dense model grew MoE counter group %q", g.Name)
		}
	}
}
