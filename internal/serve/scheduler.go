package serve

// The continuous-batching scheduler: an event-driven state machine that
// admits arriving requests into a bounded running batch, interleaves
// chunked prefill with decode in each engine iteration (vLLM-style
// token-budgeted batching), and gates admission on a per-GPU KV-cache
// capacity. Each iteration's virtual duration comes from the
// internal/inference roofline + simulated-collective step models, so
// serving metrics inherit the calibrated communication behavior of the
// underlying cluster model.
//
// KV capacity is one block ledger (kvpage.go) with two admission
// footprints, selected by Config.KVPolicy:
//
//   - KVReserve (default): 1-token blocks, and admission takes a
//     request's full prompt+output footprint up front and returns it at
//     completion. It can never need preemption, but at high load it
//     strands capacity — blocks held for tokens that will not exist for
//     seconds.
//   - KVPaged: BlockTokens-token blocks, and admission takes the
//     prompt-only footprint and grows one block at a time as decode
//     produces tokens. When the pool runs dry mid-decode the scheduler
//     preempts the least-important running request — lowest priority
//     class, then latest arrival — and either recomputes (drop its KV,
//     requeue, prefill again) or swaps (page the KV out to host and back
//     in over the per-GPU copy engines), whichever the closed-form cost
//     crossover picks under PreemptAuto.
//
// Admission order is policy-selectable (Config.Admission): FIFO by
// arrival, shortest-prompt-first, or decode-first (resumed work before
// fresh prefills). Priority classes (Request.Priority) are strict across
// all orders, so the admission order of a waiting request is a static key.
// With the default configuration — KVReserve, FIFO, no priorities — every
// code path below reduces exactly to the pre-paging scheduler, so existing
// goldens are byte-identical.
//
// The Scheduler is the per-replica state machine that RunRouted builds:
// newScheduler attaches one replica to RunRouted's sim.Engine, requests
// are fed in through Submit (an event hook callable at any virtual time),
// and Close marks the end of the arrival stream so the scheduler can drain
// and finish. It runs entirely as engine event callbacks — no sim.Proc
// stands behind a replica. RunRouted (router.go) is the one way to run a
// deployment: a single replica is RunRouted with Replicas: 1, and several
// replicas run side by side behind an arrival-splitting policy.

import (
	"cmp"
	"fmt"
	"slices"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// KVPolicy selects the KV-cache admission discipline of a replica.
type KVPolicy int

// KV admission disciplines. KVReserve is the zero value: the conservative
// whole-footprint reservation every scenario before paged KV used.
const (
	// KVReserve reserves prompt+output bytes at admission; no preemption.
	KVReserve KVPolicy = iota
	// KVPaged admits on prompt-only blocks and grows during decode,
	// preempting (recompute or swap) when the block pool runs dry.
	KVPaged
)

// PreemptPolicy selects how a paged replica evicts a running request when
// the block pool is exhausted.
type PreemptPolicy int

// Preemption modes. PreemptAuto is the zero value.
const (
	// PreemptAuto compares the closed-form costs of both modes per victim
	// and picks the cheaper one (ties go to recompute, which frees blocks
	// immediately).
	PreemptAuto PreemptPolicy = iota
	// PreemptRecompute drops the victim's KV and requeues it; the resident
	// context (prompt + generated tokens) is prefilled again on resume.
	PreemptRecompute
	// PreemptSwap pages the victim's KV out to host memory over the
	// per-GPU copy engines and back in on re-admission.
	PreemptSwap
)

// AdmissionOrder selects how a replica orders its waiting queue within a
// priority class.
type AdmissionOrder int

// Admission orders. AdmitFIFO is the zero value.
const (
	// AdmitFIFO admits in arrival (submit) order.
	AdmitFIFO AdmissionOrder = iota
	// AdmitSJF admits shortest prompt first (ties by arrival order) —
	// the classic mean-latency optimizer, at the cost of long-prompt tail.
	AdmitSJF
	// AdmitDecodeFirst admits preempted/swapped-out requests before fresh
	// prefills (ties by arrival order), prioritizing work already paid for.
	AdmitDecodeFirst
)

// schedOverhead is the fixed per-iteration scheduler/runtime cost (batch
// formation, kernel dispatch glue): 100 us, the order of a Python-level
// serving engine's iteration overhead.
const schedOverhead = 100 * sim.Microsecond

// Config parameterizes one serving engine replica.
type Config struct {
	Env   *topology.Env
	Model inference.Model
	// AR times one tensor-parallel AllReduce at a message size (usually an
	// inference.ARTimer's Time method; must be safe for reuse).
	AR func(int64) sim.Duration
	// A2A prices one MoE layer's expert-parallel all-to-all at a token
	// count (usually an inference.EPTimer's Layer method; must be safe for
	// reuse). Required when Model.MoE is set, ignored otherwise.
	A2A func(tokens int) inference.A2ACost

	// MaxBatch bounds how many requests may be resident (prefilling or
	// decoding) at once. Defaults to 32.
	MaxBatch int
	// KVCapacityBytes is the per-GPU KV-cache budget. Defaults to 8 GiB.
	// It must hold at least one KV block: one token under KVReserve,
	// BlockTokens tokens under KVPaged.
	KVCapacityBytes int64
	// ChunkTokens is the prefill token budget per engine iteration (chunked
	// prefill); long prompts are spread over several iterations so decode
	// latency stays bounded. Defaults to 512.
	ChunkTokens int

	// KVPolicy selects whole-footprint reservation (KVReserve, default) or
	// block-granular paged allocation (KVPaged).
	KVPolicy KVPolicy
	// BlockTokens is the paged allocator's tokens-per-block granularity.
	// Defaults to 16 (the vLLM default). Only meaningful under KVPaged.
	BlockTokens int
	// Preempt selects the eviction mode a paged replica uses on block
	// exhaustion. Defaults to PreemptAuto. Decode-pool replicas of a
	// disaggregated deployment always swap — they cannot re-run prefill.
	Preempt PreemptPolicy
	// Admission orders the waiting queue within a priority class.
	// Defaults to AdmitFIFO.
	Admission AdmissionOrder

	// Metrics selects whether per-request rows are retained next to the
	// metric accumulator: no (MetricsStream, bounded memory, the default)
	// or yes (MetricsExact). See MetricsMode.
	Metrics MetricsMode
	// SLO is the objective completions are judged against at completion
	// time; TierSLOs optionally overrides it per priority class. The
	// verdicts feed streamed summaries, the autoscaler's attainment
	// signal and the economics ledger. Summaries of a MetricsExact run
	// re-judge the retained rows under the query SLOs instead.
	SLO      SLO
	TierSLOs map[int]SLO
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxBatch == 0 {
		out.MaxBatch = 32
	}
	if out.KVCapacityBytes == 0 {
		out.KVCapacityBytes = 8 << 30
	}
	if out.ChunkTokens == 0 {
		out.ChunkTokens = 512
	}
	if out.BlockTokens == 0 {
		out.BlockTokens = 16
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.Env == nil:
		return fmt.Errorf("serve: Config.Env is nil")
	case c.AR == nil:
		return fmt.Errorf("serve: Config.AR is nil")
	case c.Model.MoE != nil && c.A2A == nil:
		return fmt.Errorf("serve: model %s has experts but Config.A2A is nil", c.Model.Name)
	case c.MaxBatch < 1:
		return fmt.Errorf("serve: MaxBatch = %d", c.MaxBatch)
	case c.KVCapacityBytes < 1:
		return fmt.Errorf("serve: KVCapacityBytes = %d", c.KVCapacityBytes)
	case c.ChunkTokens < 1:
		return fmt.Errorf("serve: ChunkTokens = %d", c.ChunkTokens)
	case c.KVPolicy != KVReserve && c.KVPolicy != KVPaged:
		return fmt.Errorf("serve: KVPolicy = %d", c.KVPolicy)
	case c.BlockTokens < 1:
		return fmt.Errorf("serve: BlockTokens = %d", c.BlockTokens)
	case c.Preempt != PreemptAuto && c.Preempt != PreemptRecompute && c.Preempt != PreemptSwap:
		return fmt.Errorf("serve: Preempt = %d", c.Preempt)
	case c.Admission != AdmitFIFO && c.Admission != AdmitSJF && c.Admission != AdmitDecodeFirst:
		return fmt.Errorf("serve: Admission = %d", c.Admission)
	case c.Metrics != MetricsStream && c.Metrics != MetricsExact:
		return fmt.Errorf("serve: Metrics = %d", c.Metrics)
	case c.Model.KVBytesPerTokenPerGPU < 1:
		return fmt.Errorf("serve: model %s has KVBytesPerTokenPerGPU = %d", c.Model.Name, c.Model.KVBytesPerTokenPerGPU)
	}
	if l := newKVLedger(c); l.blocks < 1 {
		return fmt.Errorf("serve: KVCapacityBytes = %d is below one %d-token KV block", c.KVCapacityBytes, l.blockTokens)
	}
	return nil
}

// checkRequest rejects a malformed request: a negative arrival time,
// non-positive token counts or a negative prefix length. These are caller
// bugs, not workload conditions, so they stay hard errors.
func (c *Config) checkRequest(r Request) error {
	if r.Arrival < 0 {
		return fmt.Errorf("serve: request %d arrives at %d ns, before the trace starts", r.ID, r.Arrival)
	}
	if r.PromptLen < 1 || r.OutputLen < 1 {
		return fmt.Errorf("serve: request %d has prompt %d / output %d tokens", r.ID, r.PromptLen, r.OutputLen)
	}
	if r.PrefixLen < 0 {
		return fmt.Errorf("serve: request %d has negative prefix length %d", r.ID, r.PrefixLen)
	}
	return nil
}

// rejectReason reports why the defaulted config could never admit r (it
// would sit in the admission queue forever and deadlock the replica), or
// "" when r is admissible. Unlike malformed requests this is a workload
// condition — an oversized request in a million-request trace — so the
// drivers record it as a structured per-request rejection instead of
// aborting the run.
func (c *Config) rejectReason(r Request) string {
	if l := newKVLedger(c); l.BlocksFor(r.PromptLen+r.OutputLen) > l.blocks {
		return "kv-capacity"
	}
	return ""
}

// prepare is RunRouted's validation point: it defaults and validates the
// config, hard-errors on malformed requests, and splits out requests the
// config can never admit as structured Rejected records (with the workload
// they are filtered from), so one hostile request degrades to a rejection
// row instead of killing the whole trace. newScheduler independently
// re-validates the config for each replica it builds.
func prepare(cfg Config, wl Workload) (Config, Workload, []RequestMetrics, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return c, wl, nil, err
	}
	var rejected []RequestMetrics
	admitted := wl.Requests
	copied := false
	for i, r := range wl.Requests {
		if err := c.checkRequest(r); err != nil {
			return c, wl, nil, err
		}
		if reason := c.rejectReason(r); reason != "" {
			if !copied {
				admitted = append([]Request(nil), wl.Requests[:i]...)
				copied = true
			}
			rejected = append(rejected, RequestMetrics{
				ID:             r.ID,
				PromptLen:      r.PromptLen,
				OutputLen:      r.OutputLen,
				Arrival:        r.Arrival,
				Priority:       r.Priority,
				Rejected:       true,
				RejectedReason: reason,
			})
		} else if copied {
			admitted = append(admitted, r)
		}
	}
	out := wl
	out.Requests = admitted
	return c, out, rejected, nil
}

// role selects which phases of a request's lifecycle a Scheduler runs.
// The zero value (roleUnified) is the chunked-prefill engine every replica
// ran before disaggregation existed: prefill and decode interleave on the
// same simulated GPUs. rolePrefill and roleDecode are the two halves of a
// disaggregated deployment (RunRouted with a decode pool): a prefill replica finishes a
// request at prefill completion and hands its KV cache off, a decode
// replica admits already-prefilled requests and only decodes.
type role int

const (
	roleUnified role = iota
	rolePrefill
	roleDecode
)

// reqState tracks one admitted request through prefill and decode.
type reqState struct {
	req         Request
	seq         int      // submit order (FIFO key; stable across requeues)
	prefillDone int      // effective-prompt tokens processed so far
	generated   int      // output tokens produced (1st at prefill completion)
	blocks      int      // KV blocks held in the replica's ledger
	admitAt     sim.Time // when admission first succeeded
	admitted    bool     // admitAt is set (resumes keep the original)
	firstTok    sim.Time // when the first output token appeared
	prefixHit   bool     // admission found the shared prefix cached

	// Preemption state (zero unless a paged replica evicted the request).
	replay    int   // output tokens folded into the effective prompt by recompute
	swapped   bool  // waiting with KV paged out to host; re-admission swaps in
	stalled   bool  // decoder held out of this iteration; its block frees in flight
	resident  bool  // in the running batch; cleared when it departs, before compaction
	preempts  int   // times this request was preempted
	swapBytes int64 // KV bytes moved by swap-out + swap-in, all TP lanes

	// Disaggregated-lifecycle extras (zero in unified runs).
	decodeAdmit   sim.Time // when the decode pool admitted the handoff
	decodeAdmited bool
	handoffBytes  int64        // KV bytes moved prefill -> decode
	handoffDur    sim.Duration // KV transfer duration on the fabric
}

// prompt is the effective prompt length: the original prompt plus any
// generated tokens a recompute preemption folded back into prefill (the
// resident context must be recomputed before decode can resume).
func (rs *reqState) prompt() int { return rs.req.PromptLen + rs.replay }

// kvTokens is the number of context tokens with KV resident on the
// replica: prompt tokens prefilled so far plus output tokens appended
// since the last (re)prefill pass.
func (rs *reqState) kvTokens() int { return rs.prefillDone + rs.generated - rs.replay }

// Scheduler is one continuous-batching replica driven by events on a
// shared sim.Engine. Zero or more Schedulers may coexist on one engine;
// each owns its simulated cluster (Config.Env), KV budget and Metrics.
type Scheduler struct {
	cfg  Config // defaults applied
	role role
	eng  *sim.Engine
	kv   kvLedger

	// swapper pages preempted KV to host; nil under KVReserve.
	swapper *KVSwapper

	// gpu is an observe-only occupancy resource tracking the replica's
	// iteration executions: each priced iteration books [start, start+dur)
	// at formIteration time, so its counters read as iteration count, busy
	// (compute+comm) time and inter-iteration idle gaps. It is never part
	// of any timing decision — iterations are serialized by the driver
	// state machine, not by this resource.
	gpu *sim.Resource
	// dispatch/combine are observe-only resources tracking the expert-
	// parallel all-to-all share of each priced iteration (the MoE model's
	// dispatch and combine time summed over its MoE layers). Nil for dense
	// models.
	dispatch *sim.Resource
	combine  *sim.Resource

	// onPrefilled fires (in engine context, at the iteration end time) when
	// a rolePrefill replica finishes a request's prompt processing — the
	// deployment driver prices the KV handoff there and calls release
	// when the transfer ends, freeing the prompt KV pinned on this replica.
	// Nil elsewhere.
	onPrefilled func(pr Prefilled, end sim.Time, release func())

	waiting []*reqState // admission queue (submit order; pickWaiting reorders)
	active  []*reqState // admission order; resident in the engine
	// ranked holds the same residents as active, kept in compareImportance
	// order by binary-search insertion (join) and one-pass compaction of
	// departures, so growth and victim selection walk it without sorting.
	// The key never changes while a request is resident. Paged replicas
	// only: reserved-KV replicas never preempt, so they leave it nil.
	ranked     []*reqState
	inflight   int64 // tokens submitted but not yet processed (JSQ load signal)
	pending    int64 // tokens committed but still on the wire (in-flight KV handoffs)
	swapIn     int   // requests whose swap-in transfer is in flight
	swapOut    int   // requests whose swap-out transfer is in flight
	freeSoon   int   // blocks held by in-flight swap-outs; free when they land
	seq        int   // submit counter
	closed     bool
	draining   bool // Drain was called: no new admissions, retire when drained
	prefixSeen map[uint64]bool

	// onRetired fires (in engine context) when the replica finishes
	// draining — Close or Drain was called and the last resident request,
	// queued resume and in-flight transfer has completed. The deployment
	// driver (router.go) stamps replica retirement times there.
	onRetired func(at sim.Time)

	res      *Result
	rowsHint int // capacity of the first exact-row allocation
	hasReq   bool
	firstArr sim.Time
	lastDone sim.Time

	// Driver state. The scheduler is a state machine over engine events:
	// drvIdle and drvStalled are the two parked states (waiting for work,
	// waiting for in-flight KV frees), drvRunning covers a priced
	// iteration in flight, and drvDone is the drained terminal state.
	state  drvState
	kicked bool // a wake event is already scheduled at the current instant
	// kickFn and iterEndFn are onKick and iterEnd bound once in
	// newScheduler: scheduling a method value directly would allocate a
	// fresh closure on every wake and every iteration.
	kickFn    func()
	iterEndFn func()

	// Iteration plan, reused across iterations (allocation-free steady
	// state): formIteration fills these, completeIteration applies and then
	// clears them.
	prefills  []prefillShare
	decoders  []*reqState
	decodeCtx int64
	chunkTok  int
}

// drvState is the scheduler's driver state machine (see Scheduler fields).
type drvState int

const (
	drvIdle    drvState = iota // waiting for arrivals/admissibility
	drvStalled                 // every resident decoder stalled on KV frees
	drvRunning                 // an iteration's completion event is scheduled
	drvDone                    // closed and fully drained
)

// prefillShare is one request's token share of a chunked-prefill budget.
type prefillShare struct {
	rs  *reqState
	tok int
}

// newScheduler attaches a new replica with the given lifecycle role to
// eng; name prefixes its observe-only resources. The replica runs until
// Close (or Drain) has been called and every submitted request has
// completed. The deployment driver (router.go) builds every pool with it.
func newScheduler(eng *sim.Engine, name string, cfg Config, ro role) (*Scheduler, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:        c,
		role:       ro,
		eng:        eng,
		kv:         newKVLedger(&c),
		prefixSeen: make(map[uint64]bool),
		res:        &Result{Stream: newStreamStats(c.Metrics, c.SLO, c.TierSLOs)},
		gpu:        sim.NewResource(name + "/gpu"),
	}
	s.kickFn = s.onKick
	s.iterEndFn = s.iterEnd
	if c.Model.MoE != nil {
		s.dispatch = sim.NewResource(name + "/moe-dispatch")
		s.combine = sim.NewResource(name + "/moe-combine")
	}
	if c.KVPolicy == KVPaged {
		s.swapper = NewKVSwapper(c.Env)
	}
	return s, nil
}

// Submit enqueues req at the current virtual time. It must be called from
// engine context (an At callback) and before Close. Requests the replica
// can never admit must be filtered by the caller first — RunRouted
// pre-validates every request via prepare and records the rejections —
// otherwise Submit panics rather than let the replica deadlock.
func (s *Scheduler) Submit(req Request) {
	if s.draining {
		panic(fmt.Sprintf("serve: Submit(request %d) on a draining replica", req.ID))
	}
	work := int64(req.PromptLen + req.OutputLen)
	if s.role == rolePrefill {
		// A prefill replica's outstanding work is prompt processing only;
		// output tokens are the decode pool's load.
		work = int64(req.PromptLen)
	}
	s.enqueue("Submit", &reqState{req: req}, work)
}

// enqueue appends rs to the waiting queue at the current virtual time and
// charges work tokens to the replica's in-flight load. It panics, naming
// the caller, on a closed replica or a request the replica can never admit.
func (s *Scheduler) enqueue(caller string, rs *reqState, work int64) {
	req := rs.req
	if s.closed {
		panic(fmt.Sprintf("serve: %s(request %d) after Close", caller, req.ID))
	}
	if err := s.cfg.checkRequest(req); err != nil {
		panic(err.Error())
	}
	if reason := s.cfg.rejectReason(req); reason != "" {
		panic(fmt.Sprintf("serve: request %d can never be admitted (%s) — the driver must filter it as a rejection", req.ID, reason))
	}
	if !s.hasReq || req.Arrival < s.firstArr {
		s.firstArr = req.Arrival
	}
	s.hasReq = true
	s.inflight += work
	rs.seq = s.seq
	s.seq++
	s.waiting = append(s.waiting, rs)
	s.notify()
}

// Prefilled is a request whose prompt processing finished on a prefill
// replica, together with the lifecycle timestamps and KV-handoff accounting
// accrued so far. It is what a disaggregated deployment moves from the
// prefill pool to the decode pool once the KV-cache transfer completes.
type Prefilled struct {
	// Req is the original request; its prompt KV is resident on the decode
	// replica when SubmitPrefilled runs (the handoff has completed).
	Req Request
	// Admitted is when the prefill pool admitted the request.
	Admitted sim.Time
	// FirstToken is when prefill completed and emitted the first output
	// token (on the prefill replica).
	FirstToken sim.Time
	// PrefixHit records a prefill-side KV prefix-cache hit.
	PrefixHit bool
	// HandoffBytes is the total KV-cache footprint moved over the fabric
	// (all tensor-parallel shards).
	HandoffBytes int64
	// HandoffDur is how long the fabric transfer took, including occupancy
	// waits on busy DMA engines / NICs.
	HandoffDur sim.Duration
}

// SubmitPrefilled enqueues a finished prefill on a roleDecode replica at
// the current virtual time — the moment its KV handoff completed. Like
// Submit it must be called from engine context and before Close; the
// request joins the admission queue with its prompt already processed and
// its first token already emitted, so the replica only decodes.
func (s *Scheduler) SubmitPrefilled(pr Prefilled) {
	if s.role != roleDecode {
		panic(fmt.Sprintf("serve: SubmitPrefilled(request %d) on a non-decode replica", pr.Req.ID))
	}
	// Remaining work is decode only: tokens 2..OutputLen.
	s.enqueue("SubmitPrefilled", &reqState{
		req:          pr.Req,
		prefillDone:  pr.Req.PromptLen,
		generated:    1,
		admitAt:      pr.Admitted,
		admitted:     true,
		firstTok:     pr.FirstToken,
		prefixHit:    pr.PrefixHit,
		handoffBytes: pr.HandoffBytes,
		handoffDur:   pr.HandoffDur,
	}, int64(pr.Req.OutputLen-1))
}

// lifetimeTokens is the most KV (in tokens) a request ever holds on the
// replica: the full prompt+output footprint, except on a prefill replica,
// which only ever materializes prompt KV (outputs are generated on the
// decode pool).
func (s *Scheduler) lifetimeTokens(r Request) int {
	if s.role == rolePrefill {
		return r.PromptLen
	}
	return r.PromptLen + r.OutputLen
}

// ensureBlocks grows rs's KV allocation until it covers tokens, returning
// false if the pool ran dry first (blocks already grabbed are kept — they
// stay useful on the next attempt or are freed on preemption).
func (s *Scheduler) ensureBlocks(rs *reqState, tokens int) bool {
	need := s.kv.BlocksFor(tokens) - rs.blocks
	if need <= 0 {
		return true
	}
	got := s.kv.take(need)
	rs.blocks += got
	return got == need
}

// freeBlocks returns every block rs holds to the ledger and wakes
// admission. The disaggregation driver's release callback runs it on a
// prefill replica when a handoff completes — the prompt KV stays resident
// during the fabric transfer.
func (s *Scheduler) freeBlocks(rs *reqState) {
	s.kv.give(rs.blocks)
	rs.blocks = 0
	s.notify()
}

// admitTokens is the KV footprint (in tokens) admission must cover before
// rs can join the batch. A reserved replica takes the whole lifetime
// footprint. A paged replica takes the effective prompt for fresh and
// recompute-resumed requests, or the full resident context for a
// swapped-out one.
func (s *Scheduler) admitTokens(rs *reqState) int {
	if s.cfg.KVPolicy != KVPaged {
		return s.lifetimeTokens(rs.req)
	}
	t := rs.prompt()
	if k := rs.kvTokens(); k > t {
		t = k
	}
	return t
}

// beforeAdmit orders the waiting queue: strict priority class first, then
// the configured admission order, then submit order. With AdmitFIFO and
// uniform priorities it degenerates to pure submit order, which is the
// pre-paging scheduler's exact behavior.
func (s *Scheduler) beforeAdmit(a, b *reqState) bool {
	if pa, pb := a.req.Priority, b.req.Priority; pa != pb {
		return pa < pb
	}
	switch s.cfg.Admission {
	case AdmitSJF:
		if a.req.PromptLen != b.req.PromptLen {
			return a.req.PromptLen < b.req.PromptLen
		}
	case AdmitDecodeFirst:
		ra := a.generated > 0 || a.swapped
		rb := b.generated > 0 || b.swapped
		if ra != rb {
			return ra
		}
	}
	return a.seq < b.seq
}

// pickWaiting returns the index of the next admission candidate.
func (s *Scheduler) pickWaiting() int {
	best := 0
	for i := 1; i < len(s.waiting); i++ {
		if s.beforeAdmit(s.waiting[i], s.waiting[best]) {
			best = i
		}
	}
	return best
}

// canAdmit reports whether rs fits the replica's KV budget right now.
func (s *Scheduler) canAdmit(rs *reqState) bool {
	return s.kv.free() >= s.kv.BlocksFor(s.admitTokens(rs))
}

// nextAdmissible reports whether the admission candidate the scheduler
// would pick right now could join the running batch. Used as the
// idle-parking predicate: a drained replica whose KV is still pinned by
// in-flight handoffs or swaps parks here instead of burning empty
// iterations until a release frees budget.
func (s *Scheduler) nextAdmissible() bool {
	if len(s.waiting) == 0 || len(s.active)+s.swapIn >= s.cfg.MaxBatch {
		return false
	}
	return s.canAdmit(s.waiting[s.pickWaiting()])
}

// transit is the number of requests owned by the replica but in neither
// the waiting queue nor the running batch: their swap transfer is in
// flight. The scheduler may not finish while any remain.
func (s *Scheduler) transit() int { return s.swapIn + s.swapOut }

// Close marks the end of the arrival stream: once the queue, the running
// batch and any in-flight swaps drain, the scheduler finishes and the
// replica's Result is final. Must be called from engine context, at or
// after the last Submit.
func (s *Scheduler) Close() {
	s.closed = true
	s.notify()
}

// Drain begins graceful retirement of the replica: it stops admitting,
// removes every request that was never admitted from the waiting queue and
// returns those requests so the caller can re-route them to surviving
// replicas (their Arrival timestamps are preserved, so queueing delay is
// still charged from the original arrival). Residents — running requests,
// preempted resumes holding or swapping KV — stay and run to completion,
// after which the replica retires exactly like a closed one (Done becomes
// true; the onRetired hook fires). Submit panics on a draining replica.
// Only unified replicas drain (the elastic fleet); must be called from
// engine context. Draining an already closed or draining replica panics —
// that is a driver bug.
func (s *Scheduler) Drain() []Request {
	if s.closed || s.draining {
		panic("serve: Drain on an already closed or draining replica")
	}
	s.draining = true
	var handoff []Request
	keep := s.waiting[:0]
	for _, rs := range s.waiting {
		if rs.admitted {
			// A resident mid-lifecycle (recompute resume or swap victim):
			// its paid-for work stays here.
			keep = append(keep, rs)
			continue
		}
		handoff = append(handoff, rs.req)
		s.inflight -= int64(rs.req.PromptLen + rs.req.OutputLen)
	}
	for i := len(keep); i < len(s.waiting); i++ {
		s.waiting[i] = nil
	}
	s.waiting = keep
	s.closed = true
	s.notify()
	return handoff
}

// Draining reports whether Drain has been called on the replica.
func (s *Scheduler) Draining() bool { return s.draining }

// InFlightTokens is the replica's outstanding work: prompt + output tokens
// of every submitted request, minus tokens already processed, plus work
// already committed to this replica whose KV handoff is still on the wire
// (reservePending). This is the join-shortest-queue load signal —
// token-weighted, so one 8K-prompt request counts for more than ten chat
// turns, and handoff-aware, so a burst of prefill completions does not
// pile onto one decode replica just because its transfers have not landed
// yet.
func (s *Scheduler) InFlightTokens() int64 { return s.inflight + s.pending }

// reservePending adjusts the replica's committed-but-not-yet-delivered
// load by delta tokens. The deployment driver adds a request's decode
// work at placement time — the instant JSQ picks this replica —
// and subtracts it again when the KV handoff completes and SubmitPrefilled
// moves the same tokens into the live in-flight count, so InFlightTokens
// never double-counts and never goes blind during a transfer.
func (s *Scheduler) reservePending(delta int64) { s.pending += delta }

// QueuedRequests is the number of requests waiting for admission.
func (s *Scheduler) QueuedRequests() int { return len(s.waiting) }

// GPUBusy is the cumulative compute+comm time booked on the replica's
// observe-only gpu resource so far — the utilization signal the autoscale
// control loop differences between samples.
func (s *Scheduler) GPUBusy() sim.Duration { return s.gpu.BusyTime() }

// ActiveRequests is the number of requests resident in the running batch.
func (s *Scheduler) ActiveRequests() int { return len(s.active) }

// HasPrefix reports whether the replica has already prefilled (and so
// notionally caches) the shared prefix of the given group.
func (s *Scheduler) HasPrefix(group uint64) bool { return s.prefixSeen[group] }

// Result returns the replica's metrics. Only complete after the engine has
// drained (every submitted request finished and Close was called). The
// result carries a fresh Counters snapshot taken at this call.
func (s *Scheduler) Result() *Result {
	s.res.Counters = s.Counters()
	return s.res
}

// Counters snapshots the replica's named resource counters: the
// observe-only gpu iteration resource (reservations = priced iterations,
// busy = compute+comm time, idle = waiting on arrivals or KV frees); for
// MoE models the moe-dispatch/moe-combine groups (the expert-parallel
// all-to-all share of each iteration); and, under paged KV, the per-GPU
// swap lanes with their queue-delay and depth accounting. This is the
// serve layer's counter registration for per-scenario "where did the time
// go" reports.
func (s *Scheduler) Counters() []sim.CounterGroup {
	groups := []sim.CounterGroup{sim.Group("gpu", s.gpu)}
	if s.dispatch != nil {
		groups = append(groups,
			sim.Group("moe-dispatch", s.dispatch),
			sim.Group("moe-combine", s.combine))
	}
	if s.swapper != nil {
		groups = append(groups, s.swapper.Counters())
	}
	return groups
}

// notify wakes the scheduler after a state change that may unblock it:
// an arrival, a KV release, a landed swap. It schedules a same-instant
// wake event, at most one pending at a time, and is a no-op while an
// iteration is in flight or the replica is done.
func (s *Scheduler) notify() {
	if s.kicked || s.state == drvRunning || s.state == drvDone {
		return
	}
	s.kicked = true
	s.eng.At(s.eng.Now(), s.kickFn)
}

// onKick is the wake event: re-evaluate the parked state's predicate and
// resume driving if it holds.
func (s *Scheduler) onKick() {
	s.kicked = false
	switch s.state {
	case drvIdle:
		if s.wakePred() {
			s.drive()
		}
	case drvStalled:
		if s.stallPred() {
			s.drive()
		}
	}
}

// wakePred is the idle-parking predicate: something resident, an
// admissible candidate, or closed-and-drained (time to exit).
func (s *Scheduler) wakePred() bool {
	return len(s.active) > 0 || s.nextAdmissible() ||
		(s.closed && len(s.waiting) == 0 && s.transit() == 0)
}

// stallPred is the stalled-parking predicate: blocks came free, or every
// in-flight swap landed (so stalls can be re-resolved either way).
func (s *Scheduler) stallPred() bool {
	return s.kv.free() > 0 || s.transit() == 0
}

// drained reports the exit condition: closed with nothing resident,
// queued or in transit.
func (s *Scheduler) drained() bool {
	return len(s.active) == 0 && len(s.waiting) == 0 && s.transit() == 0
}

// finish records the terminal state once the replica has drained.
func (s *Scheduler) finish() {
	s.state = drvDone
	if s.hasReq {
		s.res.Makespan = s.lastDone - s.firstArr
	}
	if s.onRetired != nil {
		s.onRetired(s.eng.Now())
	}
}

// Done reports whether the replica has fully drained (Close called, every
// request completed, no transfers in flight). RunRouted checks it after
// the engine drains (checkDrained): with no process behind a replica,
// the engine cannot report a stuck scheduler as a deadlock.
func (s *Scheduler) Done() bool { return s.state == drvDone }

// drive is the scheduling loop: admit, form a batch, price it and
// schedule its completion event (iterEnd); park when idle or stalled;
// finish when closed and drained. It runs inside an engine event (a wake
// kick or an iteration completion) and returns whenever the replica
// parks, starts a priced iteration, or finishes.
func (s *Scheduler) drive() {
	s.state = drvRunning
	for {
		if len(s.active) == 0 {
			if !s.wakePred() {
				s.state = drvIdle
				return
			}
			if s.drained() {
				s.finish()
				return
			}
		}
		now := s.eng.Now()
		dur, verdict := s.formIteration(now)
		switch verdict {
		case iterIdle:
			continue
		case iterStalled:
			if !s.stallPred() {
				s.state = drvStalled
				return
			}
			continue
		}
		s.eng.At(now+dur, s.iterEndFn)
		return
	}
}

// iterEnd is the completion event of a priced iteration: apply its
// effects at the completion time, then continue driving.
func (s *Scheduler) iterEnd() {
	s.completeIteration(s.eng.Now())
	s.drive()
}

// compareImportance orders resident requests for growth and victim
// selection, most important first: strict priority class, then earliest
// arrival, then submit order. Victims are taken from the unimportant end —
// lowest class, latest arrival — which is also the request whose eviction
// wastes the least paid-for work under FIFO admission. seq is unique per
// replica, so the order is total.
func compareImportance(a, b *reqState) int {
	if c := cmp.Compare(a.req.Priority, b.req.Priority); c != 0 {
		return c
	}
	if c := cmp.Compare(a.req.Arrival, b.req.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// join adds rs to the running batch: at the end of active (admission
// order) and, on a paged replica, at its importance rank in ranked.
func (s *Scheduler) join(rs *reqState) {
	rs.resident = true
	s.active = append(s.active, rs)
	if s.cfg.KVPolicy == KVPaged {
		i, _ := slices.BinarySearchFunc(s.ranked, rs, compareImportance)
		s.ranked = slices.Insert(s.ranked, i, rs)
	}
}

// departed reports a request marked as leaving the running batch.
func departed(rs *reqState) bool { return !rs.resident }

// compact removes departed requests from active and ranked in one pass
// each, keeping both orders. slices.DeleteFunc clears the vacated tail, so
// the backing arrays do not keep finished requests reachable.
func (s *Scheduler) compact() {
	s.active = slices.DeleteFunc(s.active, departed)
	if s.cfg.KVPolicy == KVPaged {
		s.ranked = slices.DeleteFunc(s.ranked, departed)
	}
}

// preempt evicts rs from the running batch at `now`. The recompute-or-swap
// choice compares closed-form costs under PreemptAuto: re-prefilling the
// resident context (one request, batch of 1) against one swap-out plus one
// swap-in of the resident KV shard over uncontended copy engines. Decode-
// pool replicas always swap — they cannot run prefill. rs is marked as
// departed; the caller compacts the batch. Returns true when the victim's
// blocks were freed immediately (recompute); a swap victim's blocks free
// only when the copy engines finish reading them out.
func (s *Scheduler) preempt(rs *reqState, now sim.Time) bool {
	resident := rs.kvTokens()
	var recompute sim.Duration
	if resident > 0 {
		if s.cfg.Model.MoE != nil {
			recompute = inference.MoEPrefillStep(s.cfg.Env, s.cfg.Model, 1, resident, s.cfg.AR, s.cfg.A2A).Total
		} else {
			recompute = inference.PrefillStep(s.cfg.Env, s.cfg.Model, 1, resident, s.cfg.AR)
		}
	}
	shard := s.cfg.Model.KVShardBytes(resident)
	swapCost := 2 * s.swapper.Cost(shard)
	mode := s.cfg.Preempt
	if s.role == roleDecode {
		mode = PreemptSwap
	} else if mode == PreemptAuto {
		if swapCost < recompute {
			mode = PreemptSwap
		} else {
			mode = PreemptRecompute
		}
	}
	rs.resident = false
	rs.preempts++
	s.res.Preemptions++
	ev := PreemptEvent{
		TimeNs:          now,
		RequestID:       rs.req.ID,
		ResidentTokens:  resident,
		RecomputeCostNs: recompute,
		SwapCostNs:      swapCost,
	}
	if mode == PreemptRecompute {
		ev.Mode = "recompute"
		s.res.Preempts = append(s.res.Preempts, ev)
		s.res.Recomputes++
		s.freeBlocks(rs)
		// The tokens of the resident context must be re-processed: fold the
		// generated tokens into the effective prompt and restart prefill.
		s.inflight += int64(rs.prefillDone + rs.generated - rs.replay)
		rs.replay = rs.generated
		rs.prefillDone = 0
		s.waiting = append(s.waiting, rs)
		return true
	}
	ev.Mode = "swap"
	s.res.Preempts = append(s.res.Preempts, ev)
	s.res.Swaps++
	wire := shard * int64(s.cfg.Env.TotalGPUs())
	rs.swapBytes += wire
	s.res.SwapBytes += wire
	end := s.swapper.Transfer(now, shard)
	rs.swapped = true
	s.swapOut++
	s.freeSoon += rs.blocks
	// The victim's blocks stay allocated until the copy engines have read
	// them out; only then does it rejoin the waiting queue.
	s.eng.At(end, func() {
		s.swapOut--
		s.freeSoon -= rs.blocks
		s.freeBlocks(rs)
		s.waiting = append(s.waiting, rs)
		s.notify()
	})
	return false
}

// growDecoders is the paged-mode growth pass: every running decoder must
// cover its next token's KV block before the iteration is formed. Requests
// are served in importance order; when the pool runs dry the least-
// important resident request is preempted (possibly the grower itself,
// vLLM-style, in which case it stops growing and leaves the batch).
//
// Swap evictions free their blocks only when the copy engines finish, so
// a grower whose deficit is already covered by in-flight swap-outs stalls
// for this iteration instead of cascade-evicting the whole batch — without
// that, a full pool of swap victims thrashes out and back in forever with
// zero tokens of forward progress. Returns true when any request was
// preempted or stalled; the caller must then skip new admission so the
// blocks coming free go to resident decoders, not to re-admitting the
// victims that just vacated them.
func (s *Scheduler) growDecoders(now sim.Time) bool {
	preempted := false
	stalls := 0
	pending := s.freeSoon // blocks already on their way back to the pool
	order := s.ranked
	j := len(order) - 1
	for i, rs := range order {
		if !rs.resident || rs.prefillDone < rs.prompt() || rs.generated >= rs.req.OutputLen {
			continue
		}
		rs.stalled = false
		for !s.ensureBlocks(rs, rs.kvTokens()+1) {
			if pending >= s.kv.BlocksFor(rs.kvTokens()+1)-rs.blocks {
				// In-flight frees cover the deficit: sit this iteration out.
				rs.stalled = true
				stalls++
				break
			}
			for j > i && !order[j].resident {
				j--
			}
			if j <= i {
				// No less-important victim remains. If frees are in flight,
				// stall; otherwise the grower evicts itself, vLLM-style.
				if pending > 0 {
					rs.stalled = true
					stalls++
				} else {
					if !s.preempt(rs, now) {
						pending += rs.blocks
					}
					preempted = true
				}
				break
			}
			victim := order[j]
			j--
			if !s.preempt(victim, now) {
				pending += victim.blocks
			}
			preempted = true
		}
	}
	if preempted {
		s.compact()
	}
	return preempted || stalls > 0
}

// iterVerdict is formIteration's outcome: run a priced iteration, or one
// of the two park conditions.
type iterVerdict int

const (
	iterRun     iterVerdict = iota // a priced batch formed; complete it after dur
	iterIdle                       // growth evicted everything; park for arrivals
	iterStalled                    // all residents stalled on in-flight KV frees
)

// formIteration runs one iteration's decision phase at `now`: admission,
// paged growth/preemption, batch formation and pricing. The formed plan
// (prefill shares, decoders) is stored on the Scheduler for
// completeIteration to apply; the returned duration is only meaningful
// for iterRun.
func (s *Scheduler) formIteration(now sim.Time) (sim.Duration, iterVerdict) {
	c := &s.cfg

	// Paged growth runs before admission: every decoder's next-token block
	// must exist before the batch is formed, and resident decoders outrank
	// the waiting queue for blocks. On an iteration that preempted or
	// stalled, admission is skipped entirely — otherwise the freed blocks
	// would be re-granted to the just-evicted victims and the pool would
	// thrash in place instead of letting the batch shrink and drain.
	disturbed := false
	if s.cfg.KVPolicy == KVPaged && len(s.active) > 0 {
		disturbed = s.growDecoders(now)
	}

	// Admission: the configured order while the batch bound and the KV
	// budget allow. Head-of-line blocking on KV is intentional — admitting
	// smaller requests around a stuck candidate would starve long prompts.
	// In-flight swap-ins count toward the batch bound; they are already
	// committed residents.
	for !disturbed && len(s.waiting) > 0 && len(s.active)+s.swapIn < c.MaxBatch {
		idx := s.pickWaiting()
		head := s.waiting[idx]
		if !s.canAdmit(head) {
			break
		}
		s.waiting = slices.Delete(s.waiting, idx, idx+1)
		if !s.ensureBlocks(head, s.admitTokens(head)) {
			panic(fmt.Sprintf("serve: request %d lost KV blocks admission just checked", head.req.ID))
		}
		if head.swapped {
			// Re-admission of a swapped-out victim: its resident KV pages
			// back in over the copy engines; it rejoins the batch when the
			// transfer lands.
			s.swapInStart(head, now)
			continue
		}
		if s.role == roleDecode {
			// The request was admitted (and prefilled) on the prefill pool;
			// record when the decode pool first let its handoff into a batch.
			if !head.decodeAdmited {
				head.decodeAdmit = now
				head.decodeAdmited = true
			}
		} else if !head.admitted {
			head.admitAt = now
			head.admitted = true
		}
		// KV prefix reuse: a replica that has already prefilled this
		// request's shared prefix (prefixSeen is set at prefill completion,
		// so the discount is only granted for KV that actually exists)
		// skips those prompt tokens, but at least one token always goes
		// through prefill so the first-token event stays well-defined. The
		// KV footprint stays at the full prompt — conservative, like the
		// rest of the admission policy. Decode replicas never prefill, so
		// the discount (which rewinds prefillDone) must not apply there;
		// neither does it apply to resumed requests mid-lifecycle.
		if g := head.req.PrefixGroup; s.role != roleDecode && g != 0 && head.req.PrefixLen > 0 && s.prefixSeen[g] &&
			head.prefillDone == 0 && head.generated == 0 && head.replay == 0 {
			d := head.req.PrefixLen
			if d > head.req.PromptLen-1 {
				d = head.req.PromptLen - 1
			}
			head.prefillDone = d
			head.prefixHit = true
			s.inflight -= int64(d)
		}
		s.join(head)
	}

	// Form the iteration: a chunked-prefill token budget spread FIFO
	// over admitted-but-unprefilled requests, plus one decode token
	// for every running sequence. The plan slices are reused across
	// iterations, so steady-state batch formation allocates nothing.
	chunkLeft := c.ChunkTokens
	s.prefills = s.prefills[:0]
	s.decoders = s.decoders[:0]
	s.decodeCtx = 0
	for _, rs := range s.active {
		if rs.prefillDone < rs.prompt() {
			if chunkLeft > 0 {
				tok := rs.prompt() - rs.prefillDone
				if tok > chunkLeft {
					tok = chunkLeft
				}
				s.prefills = append(s.prefills, prefillShare{rs, tok})
				chunkLeft -= tok
			}
		} else if rs.generated < rs.req.OutputLen && !rs.stalled {
			s.decoders = append(s.decoders, rs)
			s.decodeCtx += int64(rs.prompt() + rs.generated - rs.replay)
		}
	}

	if len(s.prefills) == 0 && len(s.decoders) == 0 {
		if len(s.active) == 0 {
			// Growth evicted everything; the driver parks until the
			// evictions land or new work arrives.
			return 0, iterIdle
		}
		// Every resident decoder is stalled on KV frees still in flight;
		// the driver parks until a swap-out lands rather than spinning
		// empty iterations at the scheduler overhead.
		return 0, iterStalled
	}

	// Price the iteration. Prefill and decode execute back to back
	// within one engine step (the non-fused form of chunked prefill);
	// each side pays its own roofline + TP-communication cost. An MoE
	// model additionally pays per MoE layer a dispatch+combine all-to-all
	// at the phase's token count, with the routed-expert compute scaled by
	// the routing's load factor.
	dur := schedOverhead
	s.chunkTok = c.ChunkTokens - chunkLeft
	var disp, comb sim.Duration
	if s.chunkTok > 0 {
		if c.Model.MoE != nil {
			st := inference.MoEPrefillStep(c.Env, c.Model, 1, s.chunkTok, c.AR, c.A2A)
			dur += st.Total
			disp += st.Dispatch
			comb += st.Combine
		} else {
			dur += inference.PrefillStep(c.Env, c.Model, 1, s.chunkTok, c.AR)
		}
	}
	if len(s.decoders) > 0 {
		if c.Model.MoE != nil {
			st := inference.MoEDecodeStepCtx(c.Env, c.Model, len(s.decoders), s.decodeCtx, c.AR, c.A2A)
			dur += st.Total
			disp += st.Dispatch
			comb += st.Combine
		} else {
			dur += inference.DecodeStepCtx(c.Env, c.Model, len(s.decoders), s.decodeCtx, c.AR)
		}
	}
	// Book the iteration on the observe-only gpu resource: its counters
	// become the replica's "where did the time go" row (busy = priced
	// iterations, idle gaps = waiting on arrivals or KV frees). MoE
	// iterations additionally book their all-to-all shares so the counter
	// report splits out fabric time from roofline time.
	s.gpu.Reserve(now, dur)
	if s.dispatch != nil && disp > 0 {
		s.dispatch.Reserve(now, disp)
	}
	if s.combine != nil && comb > 0 {
		s.combine.Reserve(now, comb)
	}
	return dur, iterRun
}

// completeIteration applies a formed iteration's effects at its completion
// time `end`: prefill progress, token emission, handoffs, completions and
// batch compaction.
func (s *Scheduler) completeIteration(end sim.Time) {
	s.res.Iterations++

	// Apply the iteration's effects at its completion time.
	for _, ps := range s.prefills {
		ps.rs.prefillDone += ps.tok
		s.inflight -= int64(ps.tok)
		if ps.rs.prefillDone == ps.rs.prompt() {
			if ps.rs.generated == 0 {
				// Prefill completion emits the first output token, and only
				// now is the request's shared prefix KV resident — requests of
				// the same group admitted earlier (e.g. within one burst) paid
				// full prefill, as they would have on real hardware.
				ps.rs.generated = 1
				ps.rs.firstTok = end
			} else {
				// Recompute replay: the re-prefill's forward pass emits the
				// next output token, exactly like the original prefill did.
				ps.rs.generated++
			}
			if s.role != rolePrefill {
				// Prefill replicas never counted output tokens as load.
				s.inflight--
			}
			if g := ps.rs.req.PrefixGroup; g != 0 {
				s.prefixSeen[g] = true
			}
		}
	}
	for _, rs := range s.decoders {
		rs.generated++
		s.inflight--
	}
	// The plan is applied: drop its request pointers so the reused buffers
	// do not keep departed requests reachable.
	clear(s.prefills)
	clear(s.decoders)
	left := false
	for _, rs := range s.active {
		switch {
		case s.role == rolePrefill && rs.prefillDone == rs.prompt() && rs.req.OutputLen > 1:
			// Prefill done: the request leaves this replica, but its prompt
			// KV stays resident until the fabric handoff completes (the
			// driver calls release at the transfer's end time). The
			// per-request record is written by the decode replica that
			// finishes the request.
			s.lastDone = end
			if s.onPrefilled != nil {
				pinned := rs
				s.onPrefilled(Prefilled{
					Req:        rs.req,
					Admitted:   rs.admitAt,
					FirstToken: rs.firstTok,
					PrefixHit:  rs.prefixHit,
				}, end, func() { s.freeBlocks(pinned) })
			}
		case rs.generated >= rs.req.OutputLen && rs.prefillDone == rs.prompt():
			// Complete. On a prefill replica this is the one-token case:
			// the single output token came from prefill, no decode phase
			// exists, so the request never visits the decode pool.
			s.freeBlocks(rs)
			s.lastDone = end
			s.record(RequestMetrics{
				ID:             rs.req.ID,
				PromptLen:      rs.req.PromptLen,
				OutputLen:      rs.req.OutputLen,
				Priority:       rs.req.Priority,
				Arrival:        rs.req.Arrival,
				Admitted:       rs.admitAt,
				FirstToken:     rs.firstTok,
				Done:           end,
				PrefixHit:      rs.prefixHit,
				Preemptions:    rs.preempts,
				SwapBytes:      rs.swapBytes,
				DecodeAdmitted: rs.decodeAdmit,
				KVHandoffBytes: rs.handoffBytes,
				HandoffNs:      rs.handoffDur,
			})
		default:
			continue
		}
		rs.resident = false
		left = true
	}
	if left {
		s.compact()
	}
}

// record folds one completed request's lifecycle row into the replica's
// accumulator and, under MetricsExact, retains the row.
func (s *Scheduler) record(m RequestMetrics) {
	s.res.Stream.observe(m)
	if s.cfg.Metrics == MetricsStream {
		return
	}
	if s.res.PerRequest == nil {
		s.res.PerRequest = make([]RequestMetrics, 0, s.rowsHint)
	}
	s.res.PerRequest = append(s.res.PerRequest, m)
}

// swapInStart begins paging a re-admitted victim's resident KV back onto
// the replica. Its blocks are already allocated; the request rejoins the
// running batch when the last lane's transfer lands.
func (s *Scheduler) swapInStart(rs *reqState, now sim.Time) {
	shard := s.cfg.Model.KVShardBytes(rs.kvTokens())
	wire := shard * int64(s.cfg.Env.TotalGPUs())
	rs.swapBytes += wire
	s.res.SwapBytes += wire
	end := s.swapper.Transfer(now, shard)
	s.swapIn++
	s.eng.At(end, func() {
		s.swapIn--
		rs.swapped = false
		s.join(rs)
		s.notify()
	})
}

// checkDrained verifies every scheduler finished once the engine drained
// and returned every KV block it handed out. A replica has no process the
// engine could report as deadlocked, so a stuck one (a request it never
// completed, a missing Close) is caught here by its terminal state
// instead; a block leak (a release path that forgot its blocks) is caught
// by the ledger's count.
func checkDrained(ss ...*Scheduler) error {
	for _, s := range ss {
		if !s.Done() {
			return fmt.Errorf("serve: engine drained but a scheduler never finished "+
				"(%d active, %d waiting, %d in transit, closed=%v)",
				len(s.active), len(s.waiting), s.transit(), s.closed)
		}
		if s.kv.used != 0 {
			return fmt.Errorf("serve: drained scheduler still holds %d of %d KV blocks", s.kv.used, s.kv.blocks)
		}
	}
	return nil
}
