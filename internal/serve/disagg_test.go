package serve

// Tests for disaggregated prefill/decode serving: KV-handoff byte
// accounting against the model's KV-size formula, fabric transfer-pricing
// monotonicity in prompt length, the DMA-vs-RDMA lane selection of KVLink,
// and the bit-identical deterministic replay a disaggregated RunRouted
// shares with the rest of the serving stack.

import (
	"encoding/json"
	"testing"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

func disaggConfig() RouterConfig {
	return RouterConfig{Replicas: 1, Decode: 2, Replica: testConfig()}
}

// TestDisaggHandoffBytes: every multi-token request's recorded handoff
// footprint must equal the KV-size formula — per-GPU shard bytes
// (Model.KVShardBytes, i.e. layers x KV-heads x head-dim x dtype / TP,
// times the prompt length) times the tensor-parallel lane count — with a
// strictly positive fabric transfer time; one-token requests complete on
// the prefill side and must record no handoff at all.
func TestDisaggHandoffBytes(t *testing.T) {
	cfg := disaggConfig()
	wl := Poisson(301, 120, 20, LogNormalLen(256, 0.6, 1024), UniformLen(1, 48))
	res, err := RunRouted(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merged.PerRequest) != len(wl.Requests) {
		t.Fatalf("completed %d of %d requests", len(res.Merged.PerRequest), len(wl.Requests))
	}
	model := cfg.Replica.Model
	lanes := int64(cfg.Replica.Env.TotalGPUs())
	handoffs := 0
	var totalBytes int64
	for _, m := range res.Merged.PerRequest {
		if m.OutputLen == 1 {
			if m.KVHandoffBytes != 0 || m.HandoffNs != 0 || m.DecodeAdmitted != 0 {
				t.Errorf("request %d: one-token request should not hand off, got %d bytes / %d ns",
					m.ID, m.KVHandoffBytes, m.HandoffNs)
			}
			continue
		}
		handoffs++
		totalBytes += m.KVHandoffBytes
		want := model.KVShardBytes(m.PromptLen) * lanes
		if m.KVHandoffBytes != want {
			t.Errorf("request %d: handoff %d bytes, want %d (prompt %d tokens x %d B/tok/GPU x %d lanes)",
				m.ID, m.KVHandoffBytes, want, m.PromptLen, model.KVBytesPerTokenPerGPU, lanes)
		}
		if m.HandoffNs <= 0 {
			t.Errorf("request %d: handoff priced at %d ns — the fabric made the transfer free", m.ID, m.HandoffNs)
		}
		if m.DecodeAdmitted < m.FirstToken+m.HandoffNs {
			t.Errorf("request %d: decode admitted at %d, before handoff completed at %d",
				m.ID, m.DecodeAdmitted, m.FirstToken+m.HandoffNs)
		}
	}
	if handoffs == 0 {
		t.Fatal("workload produced no multi-token requests; test is vacuous")
	}
	if res.Handoffs != handoffs || res.HandoffBytes != totalBytes {
		t.Errorf("aggregate accounting (%d handoffs, %d bytes) disagrees with per-request rows (%d, %d)",
			res.Handoffs, res.HandoffBytes, handoffs, totalBytes)
	}
	if res.HandoffMeanNs <= 0 || res.HandoffMaxNs < res.HandoffMeanNs {
		t.Errorf("degenerate handoff durations: mean %d ns, max %d ns", res.HandoffMeanNs, res.HandoffMaxNs)
	}
}

// TestKVLinkPricingMonotone: on an idle fabric, the handoff duration must
// be non-decreasing — and eventually strictly increasing — in prompt
// length, inherited from timing.XferTime's ceil(size/bw) rounding. A
// fresh link per measurement keeps occupancy out of the comparison.
func TestKVLinkPricingMonotone(t *testing.T) {
	model := inference.Llama3x70B(8)
	prev := sim.Duration(-1)
	first, lastDur := sim.Duration(0), sim.Duration(0)
	for _, promptLen := range []int{1, 16, 128, 512, 2048, 8192} {
		env := topology.A100_80G(2)
		link, err := NewKVLink(env, 2)
		if err != nil {
			t.Fatal(err)
		}
		end := link.Transfer(0, 0, 1, model.KVShardBytes(promptLen))
		dur := sim.Duration(end)
		if dur <= 0 {
			t.Fatalf("promptLen %d: free handoff (%d ns)", promptLen, dur)
		}
		if dur < prev {
			t.Errorf("promptLen %d: handoff %d ns got cheaper than shorter prompt's %d ns", promptLen, dur, prev)
		}
		prev = dur
		if first == 0 {
			first = dur
		}
		lastDur = dur
	}
	if lastDur <= first {
		t.Errorf("pricing never increased across a 8192x prompt-length range (%d ns .. %d ns)", first, lastDur)
	}
}

// TestKVLinkLaneSelection: an idle link must price a same-node handoff on
// the DMA-engine path and a cross-node handoff on the RDMA path, matching
// the closed-form single-transfer costs of internal/fabric exactly.
func TestKVLinkLaneSelection(t *testing.T) {
	shard := int64(1 << 20)

	// Colocated: one 8-GPU node split into two 4-GPU replica groups; every
	// lane is intra-node, so the cost is the DMA engine's.
	env := topology.A100_80G(1)
	link, err := NewKVLink(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	bw := env.DMABW
	if env.IntraBW < bw {
		bw = env.IntraBW
	}
	wantDMA := sim.Time(timing.XferTime(shard, bw) + env.IntraLat + env.DMALat)
	if got := link.Transfer(0, 0, 1, shard); got != wantDMA {
		t.Errorf("colocated handoff = %d ns, want DMA-path %d ns", got, wantDMA)
	}

	// Cross-node: two nodes, one replica group each; every lane pays RDMA.
	env2 := topology.A100_80G(2)
	link2, err := NewKVLink(env2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRDMA := sim.Time(timing.XferTime(shard, env2.IBBW) + env2.IBLat)
	if got := link2.Transfer(0, 0, 1, shard); got != wantRDMA {
		t.Errorf("cross-node handoff = %d ns, want RDMA-path %d ns", got, wantRDMA)
	}
	if wantRDMA <= wantDMA {
		t.Errorf("RDMA handoff (%d ns) should cost more than the DMA path (%d ns) at %d bytes", wantRDMA, wantDMA, shard)
	}
}

// TestKVLinkOccupancy: two handoffs leaving the same prefill replica at
// the same instant must serialize on its NICs — the second completes a
// full wire time after the first, not simultaneously.
func TestKVLinkOccupancy(t *testing.T) {
	env := topology.A100_80G(3)
	link, err := NewKVLink(env, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard := int64(8 << 20)
	first := link.Transfer(0, 0, 1, shard)
	second := link.Transfer(0, 0, 2, shard)
	wire := sim.Time(timing.XferTime(shard, env.IBBW))
	if second != first+wire {
		t.Errorf("second same-source handoff completed at %d ns, want %d (first %d + wire %d)",
			second, first+wire, first, wire)
	}
}

// TestDisaggDeterministicReplay extends the routed replay gate to the
// disaggregated driver: a seeded Poisson workload over a 2-prefill /
// 2-decode deployment with the real simulated-collective timer must
// produce bit-identical JSON across runs.
func TestDisaggDeterministicReplay(t *testing.T) {
	run := func() *RoutedResult {
		envFn := func() *topology.Env { return topology.A100_80G(1) }
		res, err := RunRouted(RouterConfig{
			Replicas: 2,
			Decode:   2,
			Replica: Config{
				Env:             envFn(),
				Model:           inference.Llama3x70B(8),
				AR:              inference.NewARTimer(envFn, inference.LibMSCCLPP).Time,
				MaxBatch:        16,
				KVCapacityBytes: 2 << 30,
				ChunkTokens:     512,
				Metrics:         MetricsExact,
			},
		}, Poisson(2028, 200, 16, LogNormalLen(384, 0.6, 1024), LogNormalLen(48, 0.5, 128)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Merged.PerRequest) != 200 {
		t.Fatalf("completed %d requests, want 200", len(a.Merged.PerRequest))
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
		t.Fatal("two disaggregated replays of the same seeded workload produced different metrics")
	}
	if a.Handoffs == 0 || a.HandoffBytes == 0 {
		t.Fatalf("replay recorded no KV handoffs (%d, %d bytes)", a.Handoffs, a.HandoffBytes)
	}
	sum := a.Summarize(SLO{MaxTTFT: 2 * sim.Second, MaxTPOT: 200 * sim.Millisecond})
	if sum.Requests != 200 || sum.ThroughputTokS <= 0 {
		t.Errorf("degenerate merged summary: %+v", sum)
	}
	// The decode pool must actually have decoded: every multi-token
	// request's row lives on a decode replica.
	decoded := 0
	for _, pr := range a.PerReplica[2:] {
		decoded += len(pr.PerRequest)
	}
	for _, pr := range a.PerReplica[:2] {
		for _, m := range pr.PerRequest {
			if m.OutputLen > 1 {
				t.Errorf("multi-token request %d completed on a prefill replica", m.ID)
			}
		}
	}
	if decoded == 0 {
		t.Error("no requests completed on the decode pool")
	}
	pinDigest(t, "be2636bd48e0be42", a.Merged, a.PerReplica,
		[]int64{int64(a.Handoffs), a.HandoffBytes, int64(a.HandoffMeanNs), int64(a.HandoffMaxNs)})
}
