package serve

// Table-driven edge cases for the scheduler: configurations and workloads
// at the boundaries of the admission/batching state machine. Every case
// must either complete deterministically or error up front — never hang
// the engine.

import (
	"testing"

	"mscclpp/internal/sim"
)

func TestSchedulerEdgeCases(t *testing.T) {
	perTok := testConfig().Model.KVBytesPerTokenPerGPU
	// A KVReserve budget that is not a multiple of the per-token footprint
	// holds ⌊C/perTok⌋ = 110 whole tokens.
	fractional := func(c *Config) { c.KVCapacityBytes = 110*perTok + perTok/2 }
	secondQueues := func(want bool) func(t *testing.T, res *Result) {
		return func(t *testing.T, res *Result) {
			byID := map[int]RequestMetrics{}
			for _, m := range res.PerRequest {
				byID[m.ID] = m
			}
			if queued := byID[1].Admitted >= byID[0].Done; queued != want {
				t.Errorf("request 1 queued behind request 0 = %v, want %v", queued, want)
			}
		}
	}
	cases := []struct {
		name    string
		cfg     func(c *Config) // mutate the base config
		reqs    []Request
		wantErr bool
		check   func(t *testing.T, res *Result)
	}{
		{
			name: "kv-footprint-exceeds-capacity",
			cfg:  func(c *Config) { c.KVCapacityBytes = 100 * perTok },
			reqs: []Request{
				{Arrival: 0, PromptLen: 90, OutputLen: 20}, // 110 tokens > 100-token budget
			},
			// Rejected deterministically up front as a structured outcome,
			// never queued and never a hard error.
			check: func(t *testing.T, res *Result) {
				if res.Rejected != 1 || len(res.PerRequest) != 1 {
					t.Fatalf("want 1 rejection, got %+v", res)
				}
				m := res.PerRequest[0]
				if !m.Rejected || m.RejectedReason != "kv-capacity" || m.Done != 0 {
					t.Errorf("malformed rejection row: %+v", m)
				}
			},
		},
		{
			name: "kv-footprint-exactly-capacity",
			cfg:  func(c *Config) { c.KVCapacityBytes = 110 * perTok },
			reqs: []Request{
				{Arrival: 0, PromptLen: 90, OutputLen: 20}, // == budget: admissible
			},
			check: func(t *testing.T, res *Result) {
				if len(res.PerRequest) != 1 {
					t.Fatalf("completed %d requests, want 1", len(res.PerRequest))
				}
			},
		},
		{
			name: "kv-fractional-budget-exact-fit",
			cfg:  fractional,
			reqs: []Request{
				{Arrival: 0, PromptLen: 90, OutputLen: 20}, // == 110 whole tokens: admissible
			},
		},
		{
			name: "kv-fractional-budget-one-token-over",
			cfg:  fractional,
			reqs: []Request{
				{Arrival: 0, PromptLen: 90, OutputLen: 21}, // 111 tokens
			},
			check: func(t *testing.T, res *Result) {
				if m := res.PerRequest[0]; !m.Rejected || m.RejectedReason != "kv-capacity" {
					t.Errorf("111 tokens in a 110.5-token budget not rejected: %+v", m)
				}
			},
		},
		{
			name: "kv-fractional-budget-fills-remainder",
			cfg:  fractional,
			reqs: []Request{
				{Arrival: 0, PromptLen: 40, OutputLen: 15},
				{Arrival: 0, PromptLen: 40, OutputLen: 15}, // 55 + 55 == 110: admitted beside request 0
			},
			check: secondQueues(false),
		},
		{
			name: "kv-fractional-budget-remainder-one-token-short",
			cfg:  fractional,
			reqs: []Request{
				{Arrival: 0, PromptLen: 40, OutputLen: 15},
				{Arrival: 0, PromptLen: 41, OutputLen: 15}, // 55 + 56 > 110: waits for request 0
			},
			check: secondQueues(true),
		},
		{
			name: "max-batch-one-serializes",
			cfg:  func(c *Config) { c.MaxBatch = 1 },
			reqs: []Request{
				{Arrival: 0, PromptLen: 64, OutputLen: 4},
				{Arrival: 0, PromptLen: 64, OutputLen: 4},
			},
			check: func(t *testing.T, res *Result) {
				byID := map[int]RequestMetrics{}
				for _, m := range res.PerRequest {
					byID[m.ID] = m
				}
				if byID[1].Admitted < byID[0].Done {
					t.Errorf("request 1 admitted at %d while request 0 resident until %d", byID[1].Admitted, byID[0].Done)
				}
			},
		},
		{
			name: "prompt-below-one-chunk",
			cfg:  func(c *Config) { c.ChunkTokens = 512 },
			reqs: []Request{
				{Arrival: 0, PromptLen: 17, OutputLen: 3}, // far below the chunk budget
			},
			check: func(t *testing.T, res *Result) {
				// One prefill iteration (17 of 512 budget) + 2 decode iterations.
				if res.Iterations != 3 {
					t.Errorf("iterations = %d, want 3 (1 prefill + 2 decode)", res.Iterations)
				}
				m := res.PerRequest[0]
				if m.FirstToken <= m.Arrival || m.Done <= m.FirstToken {
					t.Errorf("inconsistent lifecycle: %+v", m)
				}
			},
		},
		{
			name: "zero-request-workload",
			reqs: nil,
			check: func(t *testing.T, res *Result) {
				if len(res.PerRequest) != 0 || res.Iterations != 0 || res.Makespan != 0 {
					t.Errorf("empty workload produced non-empty result: %+v", res)
				}
			},
		},
		{
			name: "last-arrival-after-all-others-complete",
			reqs: []Request{
				{Arrival: 0, PromptLen: 64, OutputLen: 2},
				// The engine is fully idle for ~60s before this arrives; the
				// scheduler must park and wake rather than exit or spin.
				{Arrival: 60 * sim.Second, PromptLen: 64, OutputLen: 2},
			},
			check: func(t *testing.T, res *Result) {
				byID := map[int]RequestMetrics{}
				for _, m := range res.PerRequest {
					byID[m.ID] = m
				}
				if byID[0].Done >= 60*sim.Second {
					t.Errorf("request 0 not done (%d) before the late arrival", byID[0].Done)
				}
				if byID[1].Admitted < 60*sim.Second {
					t.Errorf("request 1 admitted at %d before it arrived", byID[1].Admitted)
				}
				if res.Makespan < 60*sim.Second {
					t.Errorf("makespan %d does not span the idle gap", res.Makespan)
				}
			},
		},
		{
			name: "single-token-output-at-chunk-boundary",
			cfg:  func(c *Config) { c.ChunkTokens = 64 },
			reqs: []Request{
				{Arrival: 0, PromptLen: 64, OutputLen: 1}, // done at prefill completion
			},
			check: func(t *testing.T, res *Result) {
				m := res.PerRequest[0]
				if m.Done != m.FirstToken {
					t.Errorf("single-token request: done %d != first token %d", m.Done, m.FirstToken)
				}
				if res.Iterations != 1 {
					t.Errorf("iterations = %d, want 1", res.Iterations)
				}
			},
		},
		{
			name: "prefix-discount-never-skips-whole-prompt",
			reqs: []Request{
				// Both in group 9 with a declared prefix longer than the whole
				// prompt. The second arrives well after the first's prefill
				// completed (the prefix cache is marked resident only then),
				// and its discount must cap at PromptLen-1 so prefill (and
				// the first-token event) still happens.
				{Arrival: 0, PromptLen: 50, OutputLen: 2, PrefixGroup: 9, PrefixLen: 400},
				{Arrival: 30 * sim.Second, PromptLen: 50, OutputLen: 2, PrefixGroup: 9, PrefixLen: 400},
			},
			check: func(t *testing.T, res *Result) {
				for _, m := range res.PerRequest {
					if m.FirstToken <= m.Arrival {
						t.Errorf("request %d: first token at %d not after arrival", m.ID, m.FirstToken)
					}
				}
				hit := 0
				for _, m := range res.PerRequest {
					if m.PrefixHit {
						hit++
					}
				}
				if hit != 1 {
					t.Errorf("prefix hits = %d, want exactly 1 (second member of the group)", hit)
				}
			},
		},
		{
			name: "negative-prefix-len-rejected",
			reqs: []Request{
				{Arrival: 0, PromptLen: 8, OutputLen: 2, PrefixLen: -1},
			},
			wantErr: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			reqs := append([]Request(nil), tc.reqs...)
			for i := range reqs {
				reqs[i].ID = i
			}
			res, err := runSingle(cfg, Workload{Name: tc.name, Requests: reqs})
			if tc.wantErr {
				if err == nil {
					t.Fatal("RunRouted accepted a workload it must reject")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerRequest) != len(reqs) {
				t.Fatalf("completed %d of %d requests", len(res.PerRequest), len(reqs))
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}
