package serve

// Disaggregated prefill/decode serving: prompt processing runs on a
// dedicated pool of prefill replicas, token generation on a separate pool
// of decode replicas, and every finished prefill hands its KV cache to a
// decode replica over the cluster fabric before decode can begin. The
// handoff is priced honestly with internal/fabric's occupancy models —
// every tensor-parallel rank ships its KV shard over its own DMA engine or
// RDMA NIC, and concurrent handoffs queue on those resources — so the
// crossover against chunked prefill (the unified Scheduler) reflects the
// interconnect, not a free teleport.
//
// RunRouted runs this shape when RouterConfig.Decode > 0. The lifecycle of
// one request:
//
//	arrival --Policy--> prefill replica (chunked prefill only)
//	       prefill completes: first token emitted (TTFT), KV stays pinned
//	       --JSQ--> KV handoff over the fabric (KVLink.Transfer)
//	       handoff completes: prefill KV released, decode pool admits
//	       decode replica generates tokens 2..OutputLen (pure decode)
//
// Decode iterations on the decode pool overlap with in-flight handoffs by
// construction: a transfer is an engine event, not scheduler work, so a
// decode replica keeps batching while KV for its next requests is still on
// the wire.

import (
	"fmt"

	"mscclpp/internal/fabric"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// KVLink prices KV-cache handoffs between replicas over one shared
// interconnect model. The fabric's GPUs are partitioned into equal
// per-replica groups; a transfer from replica src to replica dst moves one
// KV shard per GPU lane in parallel (rank g of src to rank g of dst), each
// lane over the DMA engine when the two ranks share a node and over the
// RDMA NICs otherwise. Lanes are real fabric.Fabric resources, so
// back-to-back handoffs from one replica serialize on its NICs — the
// congestion a disaggregated deployment actually pays.
type KVLink struct {
	fab     *fabric.Fabric
	gpusPer int // GPU lanes per replica group
	groups  int
}

// NewKVLink builds a handoff fabric over env, partitioned into `replicas`
// equal GPU groups: replica r owns GPUs [r*G, (r+1)*G) with
// G = env.TotalGPUs()/replicas. env must validate and divide evenly.
func NewKVLink(env *topology.Env, replicas int) (*KVLink, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("serve: KVLink needs >= 2 replica groups, got %d", replicas)
	}
	if err := env.Validate(); err != nil {
		return nil, fmt.Errorf("serve: KVLink env: %w", err)
	}
	if env.TotalGPUs()%replicas != 0 {
		return nil, fmt.Errorf("serve: KVLink cannot split %d GPUs into %d replica groups", env.TotalGPUs(), replicas)
	}
	return &KVLink{
		fab:     fabric.New(env, timing.Default(env)),
		gpusPer: env.TotalGPUs() / replicas,
		groups:  replicas,
	}, nil
}

// Transfer schedules a KV handoff of shardBytes per GPU lane from replica
// group src to replica group dst starting at now, and returns the time the
// last lane's shard is fully resident at the destination. Lane transfers
// occupy the fabric's DMA engines (same-node lanes) or RDMA NICs
// (cross-node lanes); a lane whose resources are busy with an earlier
// handoff waits its turn, which is how transfer pricing stays honest under
// bursts of simultaneous prefill completions.
func (l *KVLink) Transfer(now sim.Time, src, dst int, shardBytes int64) sim.Time {
	if src == dst || src < 0 || dst < 0 || src >= l.groups || dst >= l.groups {
		panic(fmt.Sprintf("serve: KVLink.Transfer(%d -> %d) with %d groups", src, dst, l.groups))
	}
	end := now
	for g := 0; g < l.gpusPer; g++ {
		s := src*l.gpusPer + g
		d := dst*l.gpusPer + g
		var e sim.Time
		if l.fab.SameNode(s, d) {
			e = l.fab.DMA(now, s, d, shardBytes)
		} else {
			e = l.fab.RDMA(now, s, d, shardBytes)
		}
		if e > end {
			end = e
		}
	}
	return end
}
