package serve

// Scheduler-level coverage for paged KV, preemption and priority classes:
// the provable reduction to whole-footprint reservation when capacity is
// never exhausted, lifecycle-timestamp invariants across preempt/resume
// cycles for every preemption mode and admission order, the
// recompute-or-swap crossover audit, and deterministic replay under
// overload.

import (
	"encoding/json"
	"testing"
)

// pagedConfig is testConfig squeezed to a 16-block KV pool so sustained
// traffic exhausts it and forces preemption.
func pagedConfig() Config {
	c := testConfig()
	c.KVPolicy = KVPaged
	c.MaxBatch = 8
	c.ChunkTokens = 128
	c.KVCapacityBytes = 256 * c.Model.KVBytesPerTokenPerGPU // 16 blocks of 16 tokens
	return c
}

// overloadWorkload drives arrivals well past the 16-block pool's capacity:
// each request needs 4-8 blocks resident by completion, so a handful of
// concurrent residents exhausts the pool.
func overloadWorkload() Workload {
	return Poisson(17, 48, 40, UniformLen(32, 64), UniformLen(32, 64))
}

// TestPagedReducesToReserve: with capacity that is never exhausted, the
// paged scheduler admits, batches and times exactly like whole-footprint
// reservation — the two Results are bit-identical JSON. This is the
// property that keeps every pre-paging golden byte-stable.
func TestPagedReducesToReserve(t *testing.T) {
	wl := Poisson(31, 60, 10, LogNormalLen(256, 0.6, 1024), UniformLen(8, 64))
	reserve, err := runSingle(testConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.KVPolicy = KVPaged
	paged, err := runSingle(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if paged.Preemptions != 0 {
		t.Fatalf("ample capacity still preempted %d times", paged.Preemptions)
	}
	a, err := json.Marshal(reserve)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(paged)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("paged scheduler at ample capacity diverged from reservation timing")
	}
}

// checkLifecycle asserts the timestamp invariants every request must keep,
// preempted or not: Arrival <= Admitted <= FirstToken <= Done and a
// non-negative TPOT.
func checkLifecycle(t *testing.T, res *Result, wantRequests int) {
	t.Helper()
	if len(res.PerRequest) != wantRequests {
		t.Fatalf("completed %d of %d requests", len(res.PerRequest), wantRequests)
	}
	var preempts int
	for _, m := range res.PerRequest {
		if m.Rejected {
			t.Fatalf("request %d rejected in an admissible workload", m.ID)
		}
		if m.Arrival > m.Admitted || m.Admitted > m.FirstToken || m.FirstToken > m.Done {
			t.Errorf("request %d: lifecycle out of order: arrival %d admitted %d first %d done %d",
				m.ID, m.Arrival, m.Admitted, m.FirstToken, m.Done)
		}
		if m.TPOT() < 0 {
			t.Errorf("request %d: negative TPOT %d", m.ID, m.TPOT())
		}
		if m.Preemptions == 0 && m.SwapBytes != 0 {
			t.Errorf("request %d: swap bytes without preemption: %+v", m.ID, m)
		}
		preempts += m.Preemptions
	}
	if preempts != res.Preemptions {
		t.Errorf("per-request preemptions sum %d != result total %d", preempts, res.Preemptions)
	}
	if res.Preemptions != res.Recomputes+res.Swaps {
		t.Errorf("preemptions %d != recomputes %d + swaps %d", res.Preemptions, res.Recomputes, res.Swaps)
	}
	if len(res.Preempts) != res.Preemptions {
		t.Errorf("audit trail has %d events for %d preemptions", len(res.Preempts), res.Preemptions)
	}
}

// TestPagedPreemptionLifecycle: under sustained overload every preemption
// mode and admission order completes every request with ordered lifecycle
// timestamps — across recompute requeues and swap-out/swap-in cycles.
func TestPagedPreemptionLifecycle(t *testing.T) {
	wl := overloadWorkload()
	for _, pp := range []struct {
		name string
		mode PreemptPolicy
	}{{"auto", PreemptAuto}, {"recompute", PreemptRecompute}, {"swap", PreemptSwap}} {
		for _, ad := range []struct {
			name  string
			order AdmissionOrder
		}{{"fifo", AdmitFIFO}, {"sjf", AdmitSJF}, {"decode-first", AdmitDecodeFirst}} {
			t.Run(pp.name+"/"+ad.name, func(t *testing.T) {
				cfg := pagedConfig()
				cfg.Preempt = pp.mode
				cfg.Admission = ad.order
				res, err := runSingle(cfg, wl)
				if err != nil {
					t.Fatal(err)
				}
				checkLifecycle(t, res, len(wl.Requests))
				if res.Preemptions == 0 {
					t.Error("overload workload never preempted — the stressor has gone soft")
				}
				if pp.mode == PreemptRecompute && res.Swaps != 0 {
					t.Errorf("recompute-only policy swapped %d times", res.Swaps)
				}
				if pp.mode == PreemptSwap && res.Recomputes != 0 {
					t.Errorf("swap-only policy recomputed %d times", res.Recomputes)
				}
				if pp.mode == PreemptSwap && res.SwapBytes == 0 {
					t.Error("swap-only policy moved no bytes")
				}
			})
		}
	}
}

// TestPagedPriorityClasses: under identical overload the interactive tier
// must never be preempted while batch requests are resident to victimize.
func TestPagedPriorityClasses(t *testing.T) {
	wl := WithPriorities(overloadWorkload(), 5, 0.4)
	cfg := pagedConfig()
	res, err := runSingle(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	checkLifecycle(t, res, len(wl.Requests))
	prio := make(map[int]int, len(wl.Requests))
	for _, r := range wl.Requests {
		prio[r.ID] = r.Priority
	}
	var intPre, batchPre int
	for _, m := range res.PerRequest {
		if m.Priority != prio[m.ID] {
			t.Errorf("request %d: priority %d recorded as %d", m.ID, prio[m.ID], m.Priority)
		}
		if m.Priority == 0 {
			intPre += m.Preemptions
		} else {
			batchPre += m.Preemptions
		}
	}
	if batchPre == 0 {
		t.Error("no batch-tier preemptions under overload")
	}
	if intPre > batchPre {
		t.Errorf("interactive tier preempted more than batch (%d > %d) despite strict priority", intPre, batchPre)
	}
}

// TestPreemptCrossoverAudit: every preemption event on a unified replica
// records both closed-form costs, and under PreemptAuto the recorded
// choice is exactly the cheaper one (ties to recompute).
func TestPreemptCrossoverAudit(t *testing.T) {
	cfg := pagedConfig()
	cfg.Preempt = PreemptAuto
	res, err := runSingle(cfg, overloadWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Preempts) == 0 {
		t.Fatal("no preemption events to audit")
	}
	for i, ev := range res.Preempts {
		want := "recompute"
		if ev.SwapCostNs < ev.RecomputeCostNs {
			want = "swap"
		}
		if ev.Mode != want {
			t.Errorf("event %d (req %d, %d resident): picked %s, cheaper is %s (recompute %d ns, swap %d ns)",
				i, ev.RequestID, ev.ResidentTokens, ev.Mode, want, ev.RecomputeCostNs, ev.SwapCostNs)
		}
	}
}

// TestPagedOverloadDeterministicReplay: the full overload configuration —
// paged KV, auto preemption, two priority tiers — is bit-identical JSON
// across runs (pattern of TestRoutedDeterministicReplay).
func TestPagedOverloadDeterministicReplay(t *testing.T) {
	wl := WithPriorities(overloadWorkload(), 5, 0.4)
	cfg := pagedConfig()
	run := func() string {
		t.Helper()
		res, err := runSingle(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	a, b := run(), run()
	if a != b {
		t.Error("overload replay is not deterministic")
	}
}

// TestPagedDisaggSwap: a disaggregated deployment with a starved decode
// pool preempts by swap (decode replicas cannot re-run prefill) and still
// completes every request with ordered timestamps.
func TestPagedDisaggSwap(t *testing.T) {
	cfg := pagedConfig()
	cfg.Preempt = PreemptRecompute // decode pool must override this to swap
	wl := Poisson(23, 32, 40, UniformLen(32, 64), UniformLen(32, 64))
	res, err := RunRouted(RouterConfig{Replicas: 1, Decode: 1, Replica: cfg}, wl)
	if err != nil {
		t.Fatal(err)
	}
	checkLifecycle(t, res.Merged, len(wl.Requests))
	if res.Merged.Preemptions > 0 && res.Merged.Recomputes != 0 {
		t.Errorf("decode pool recomputed %d times; it can only swap", res.Merged.Recomputes)
	}
	pinDigest(t, "a571c4d60793114e", res.Merged, res.PerReplica,
		[]int64{int64(res.Handoffs), res.HandoffBytes, int64(res.HandoffMeanNs), int64(res.HandoffMaxNs)})
}

// TestWithPriorities: the tier split is deterministic in the seed, leaves
// arrivals and lengths untouched, and respects the declared fraction
// within sampling noise.
func TestWithPriorities(t *testing.T) {
	base := Poisson(9, 400, 20, UniformLen(16, 64), UniformLen(16, 64))
	a := WithPriorities(base, 77, 0.3)
	b := WithPriorities(base, 77, 0.3)
	interactive := 0
	for i := range a.Requests {
		if a.Requests[i].Priority != b.Requests[i].Priority {
			t.Fatal("WithPriorities is not deterministic in the seed")
		}
		if a.Requests[i].Arrival != base.Requests[i].Arrival || a.Requests[i].PromptLen != base.Requests[i].PromptLen {
			t.Fatal("WithPriorities perturbed arrivals or lengths")
		}
		if a.Requests[i].Priority == 0 {
			interactive++
		}
	}
	if frac := float64(interactive) / float64(len(a.Requests)); frac < 0.2 || frac > 0.4 {
		t.Errorf("interactive fraction %.2f far from requested 0.30", frac)
	}
}
