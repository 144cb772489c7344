package serve

// KV-cache accounting: one block ledger per replica, shared by both
// admission disciplines. The ledger is a count. Blocks are fungible (the
// simulator never addresses KV bytes), so a request records how many
// blocks it holds and the replica records how many are in use; nothing
// needs a block's identity.
//
// The two KV policies differ only in block size and admission footprint:
//
//   - KVReserve uses 1-token blocks and takes a request's whole lifetime
//     footprint (prompt+output) at admission, so it never grows and never
//     needs preemption.
//   - KVPaged uses Config.BlockTokens-token blocks, takes the prompt at
//     admission and grows one block at a time as decode produces tokens —
//     the vLLM PagedAttention shape. When the pool runs dry mid-decode the
//     scheduler preempts a victim (scheduler.go); a swapped victim's KV
//     crosses the per-GPU copy engines priced by KVSwapper below.
//
// Block conservation is checked on every run: checkDrained fails if a
// drained replica's ledger still holds blocks.

import (
	"fmt"

	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// kvLedger counts one replica's KV-cache blocks. Its invariants: the
// blocks held by the replica's requests sum to used, used never exceeds
// blocks, and used is zero once the replica drains.
type kvLedger struct {
	blockTokens int // tokens per block
	blocks      int // blocks in the budget
	used        int // blocks held by requests
}

// newKVLedger sizes the defaulted config's block ledger: 1-token blocks under
// KVReserve, BlockTokens-token blocks under KVPaged, and the floor of the
// per-GPU capacity over one block's bytes — a partial trailing block is
// unusable, like a real paged allocator's slab remainder. Under KVReserve
// the floor is exact: usedBytes + need·bytesPerToken ≤ C holds exactly
// when usedTokens + need ≤ ⌊C/bytesPerToken⌋.
func newKVLedger(c *Config) kvLedger {
	bt := 1
	if c.KVPolicy == KVPaged {
		bt = c.BlockTokens
	}
	return kvLedger{blockTokens: bt, blocks: int(c.KVCapacityBytes / (int64(bt) * c.Model.KVBytesPerTokenPerGPU))}
}

// BlocksFor returns the block count covering tokens (ceiling division);
// zero or negative token counts need no blocks.
func (l *kvLedger) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + l.blockTokens - 1) / l.blockTokens
}

// free returns the number of blocks not held by any request.
func (l *kvLedger) free() int { return l.blocks - l.used }

// take grabs up to n blocks and returns how many it got: min(n, free).
// A partial take at exhaustion is kept by the caller, so growth that runs
// the pool dry still holds what it grabbed.
func (l *kvLedger) take(n int) int {
	n = min(n, l.free())
	l.used += n
	return n
}

// give returns n blocks to the pool. Returning more than are held panics:
// the scheduler's block accounting is corrupt and every later admission
// would be too.
func (l *kvLedger) give(n int) {
	if n < 0 || n > l.used {
		panic(fmt.Sprintf("serve: KV ledger asked to return %d blocks with %d held", n, l.used))
	}
	l.used -= n
}

// KVSwapper prices paged KV swap-out/swap-in over a replica's per-GPU copy
// engines. Like the disaggregation layer's KVLink, it reuses the fabric's
// occupancy discipline — each tensor-parallel rank pages its own KV shard
// over its own DMA engine to host memory, so concurrent swaps on one
// replica queue behind each other per engine — but the endpoints are
// GPU<->host rather than GPU<->GPU, at the environment's DMA-engine
// bandwidth and initiation latency.
type KVSwapper struct {
	lanes []*sim.Resource
	bw    float64 // bytes/ns per engine
	lat   sim.Duration
}

// NewKVSwapper builds the swap engines for one replica's environment: one
// copy-engine resource per GPU, at env.DMABW and env.DMALat.
func NewKVSwapper(env *topology.Env) *KVSwapper {
	s := &KVSwapper{bw: env.DMABW, lat: env.DMALat}
	for i := 0; i < env.TotalGPUs(); i++ {
		s.lanes = append(s.lanes, sim.NewResource(fmt.Sprintf("kvswap[%d]", i)))
	}
	return s
}

// Transfer schedules one swap direction (out or in) of shardBytes per GPU
// lane starting at now and returns the time the last lane's shard has
// fully crossed its copy engine. Lanes run in parallel; a lane busy with
// an earlier swap queues, which is what keeps swap storms honest.
func (s *KVSwapper) Transfer(now sim.Time, shardBytes int64) sim.Time {
	wire := timing.XferTime(shardBytes, s.bw)
	end := now
	for _, r := range s.lanes {
		_, e := r.Reserve(now, wire)
		if e += s.lat; e > end {
			end = e
		}
	}
	return end
}

// Counters snapshots the swap lanes' resource counters as one named group:
// per-lane busy time is swap traffic, queue delay is time swaps spent
// behind earlier swaps on the same engine, and max depth is the deepest
// swap pile-up observed.
func (s *KVSwapper) Counters() sim.CounterGroup {
	return sim.Group("kvswap", s.lanes...)
}

// Cost is the closed-form uncontended cost of one swap direction of
// shardBytes per lane — the quantity the recompute-or-swap crossover
// compares against the prefill re-run cost (lanes are parallel, so the
// uncontended time is a single engine's wire time plus latency).
func (s *KVSwapper) Cost(shardBytes int64) sim.Duration {
	return timing.XferTime(shardBytes, s.bw) + s.lat
}
