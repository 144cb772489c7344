package serve

// The continuous-batching scheduler: a sim.Proc that admits arriving
// requests into a bounded running batch, interleaves chunked prefill with
// decode in each engine iteration (vLLM-style token-budgeted batching), and
// gates admission on a per-GPU KV-cache capacity. Each iteration's virtual
// duration comes from the internal/inference roofline + simulated-collective
// step models, so serving metrics inherit the calibrated communication
// behavior of the underlying cluster model.
//
// Two KV admission disciplines coexist (Config.KVPolicy):
//
//   - KVReserve (default): admission reserves a request's full
//     prompt+output footprint up front and releases it at completion. It
//     can never need preemption, but at high load it strands capacity —
//     bytes reserved for tokens that will not exist for seconds.
//   - KVPaged: a block-granular allocator (kvpage.go) admits on the
//     prompt-only footprint and grows the allocation one block at a time
//     as decode produces tokens. When the pager runs dry mid-decode the
//     scheduler preempts the least-important running request — lowest
//     priority class, then latest arrival — and either recomputes
//     (drop its KV, requeue, prefill again) or swaps (page the KV out to
//     host and back in over the per-GPU copy engines), whichever the
//     closed-form cost crossover picks under PreemptAuto.
//
// Admission order is policy-selectable (Config.Admission): FIFO by
// arrival, shortest-prompt-first, or decode-first (resumed work before
// fresh prefills). Priority classes (Request.Priority) are strict across
// all orders, with optional aging (Config.AgingNs) to bound starvation.
// With the default configuration — KVReserve, FIFO, no priorities — every
// code path below reduces exactly to the pre-paging scheduler, so existing
// goldens are byte-identical.
//
// The scheduler is an embeddable component: NewScheduler attaches one
// replica engine to an existing sim.Engine, requests are fed in through
// Submit (an event hook callable at any virtual time), and Close marks the
// end of the arrival stream so the scheduler process can drain and exit.
// Run wires a single replica to a fresh engine; internal/serve's router
// (router.go) runs several side by side behind an arrival-splitting policy.

import (
	"fmt"
	"sort"

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
	KVCapacityBytes int64
	// ChunkTokens is the prefill token budget per engine iteration (chunked
	// prefill); long prompts are spread over several iterations so decode
	// latency stays bounded. Defaults to 512.
	ChunkTokens int
	// SchedOverhead is the fixed per-iteration scheduler/runtime cost
	// (batch formation, kernel dispatch glue). Defaults to 100 us, the
	// order of a Python-level serving engine's iteration overhead.
	SchedOverhead sim.Duration

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
	// AgingNs, when positive, promotes a waiting request one priority
	// class per AgingNs of queueing delay, bounding starvation under
	// strict priority. Zero (default) disables aging.
	AgingNs sim.Duration

	// Metrics selects streaming (bounded-memory, the default) or exact
	// (full per-request row) metric recording. See MetricsMode.
	Metrics MetricsMode
	// SLO is the objective completions are judged against at completion
	// time under MetricsStream; TierSLOs optionally overrides it per
	// priority class. Both are ignored under MetricsExact (rows allow
	// post-hoc judging under any SLO).
	SLO      SLO
	TierSLOs map[int]SLO

	// Driver selects how the replica's scheduling loop executes on the
	// engine. See DriverMode; the default is the callback driver.
	Driver DriverMode
}

// DriverMode selects the execution style of a replica's scheduling loop.
type DriverMode int

// Driver modes. DriverCallback is the zero value.
const (
	// DriverCallback runs the scheduler as engine event callbacks: every
	// iteration boundary is a scheduled event, with no goroutine behind
	// the replica. This removes the park/resume hand-off that dominates a
	// drained engine's cost and is the default.
	DriverCallback DriverMode = iota
	// DriverProc runs the scheduler as a blocking sim.Proc, the original
	// execution style. It is retained as the reference implementation the
	// callback driver's timing-equivalence tests compare against.
	DriverProc
)

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
	if out.SchedOverhead == 0 {
		out.SchedOverhead = 100 * sim.Microsecond
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
	case c.SchedOverhead < 0:
		return fmt.Errorf("serve: SchedOverhead = %d", c.SchedOverhead)
	case c.KVPolicy != KVReserve && c.KVPolicy != KVPaged:
		return fmt.Errorf("serve: KVPolicy = %d", c.KVPolicy)
	case c.BlockTokens < 1:
		return fmt.Errorf("serve: BlockTokens = %d", c.BlockTokens)
	case c.Preempt != PreemptAuto && c.Preempt != PreemptRecompute && c.Preempt != PreemptSwap:
		return fmt.Errorf("serve: Preempt = %d", c.Preempt)
	case c.Admission != AdmitFIFO && c.Admission != AdmitSJF && c.Admission != AdmitDecodeFirst:
		return fmt.Errorf("serve: Admission = %d", c.Admission)
	case c.AgingNs < 0:
		return fmt.Errorf("serve: AgingNs = %d", c.AgingNs)
	case c.Metrics != MetricsStream && c.Metrics != MetricsExact:
		return fmt.Errorf("serve: Metrics = %d", c.Metrics)
	case c.Driver != DriverCallback && c.Driver != DriverProc:
		return fmt.Errorf("serve: Driver = %d", c.Driver)
	}
	return nil
}

// checkRequest rejects a malformed request: non-positive token counts or a
// negative prefix length. These are caller bugs, not workload conditions,
// so they stay hard errors.
func (c *Config) checkRequest(r Request) error {
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
	tokens := r.PromptLen + r.OutputLen
	if c.KVPolicy == KVPaged {
		blockBytes := int64(c.BlockTokens) * c.Model.KVBytesPerTokenPerGPU
		total := c.KVCapacityBytes / blockBytes
		need := int64((tokens + c.BlockTokens - 1) / c.BlockTokens)
		if need > total {
			return "kv-capacity"
		}
		return ""
	}
	if need := int64(tokens) * c.Model.KVBytesPerTokenPerGPU; need > c.KVCapacityBytes {
		return "kv-capacity"
	}
	return ""
}

// prepare is the single driver-side validation point shared by Run and
// RunRouted: it defaults and validates the config, hard-errors on
// malformed requests, and splits out requests the config
// can never admit as structured Rejected records (with the workload they
// are filtered from), so one hostile request degrades to a rejection row
// instead of killing the whole trace. NewScheduler independently
// re-validates the config — intentional defense-in-depth for embedders
// that construct schedulers directly.
func prepare(cfg Config, wl Workload) (Config, Workload, []RequestMetrics, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return c, wl, nil, err
	}
	if c.Model.KVBytesPerTokenPerGPU < 1 {
		return c, wl, nil, fmt.Errorf("serve: model %s has KVBytesPerTokenPerGPU = %d", c.Model.Name, c.Model.KVBytesPerTokenPerGPU)
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
	kvReserved  int64    // bytes reserved against the KV budget (KVReserve)
	blocks      []int32  // KV blocks held (KVPaged)
	admitAt     sim.Time // when admission first succeeded
	admitted    bool     // admitAt is set (resumes keep the original)
	firstTok    sim.Time // when the first output token appeared
	prefixHit   bool     // admission found the shared prefix cached

	// Preemption state (zero unless a paged replica evicted the request).
	replay    int   // output tokens folded into the effective prompt by recompute
	swapped   bool  // waiting with KV paged out to host; re-admission swaps in
	stalled   bool  // decoder held out of this iteration; its block frees in flight
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

// Scheduler is one continuous-batching replica running as a process on a
// shared sim.Engine. Zero or more Schedulers may coexist on one engine;
// each owns its simulated cluster (Config.Env), KV budget and Metrics.
type Scheduler struct {
	cfg      Config // defaults applied
	role     role
	kvPerTok int64
	eng      *sim.Engine
	arrived  *sim.Cond

	// Paged-KV machinery; nil under KVReserve.
	pager   *KVPager
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

	waiting    []*reqState // admission queue (submit order; pickWaiting reorders)
	active     []*reqState // admission order; resident in the engine
	kvUsed     int64
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
	stream   *StreamStats // bounded-memory recording; nil under MetricsExact
	hasReq   bool
	firstArr sim.Time
	lastDone sim.Time

	// Callback-driver state (DriverCallback). The scheduler is a state
	// machine over engine events instead of a parked goroutine: drvIdle
	// and drvStalled are the two parked states the Proc driver expresses
	// as Cond waits, drvRunning covers a priced iteration in flight, and
	// drvDone is the drained terminal state.
	state  drvState
	kicked bool // a wake event is already scheduled at the current instant

	// Iteration plan, reused across iterations (allocation-free steady
	// state): formIteration fills these, completeIteration applies them.
	prefills  []prefillShare
	decoders  []*reqState
	decodeCtx int64
	chunkTok  int
}

// drvState is the callback driver's state machine (see Scheduler fields).
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

// NewScheduler attaches a new replica to eng and spawns its scheduler
// process under the given name. The process runs until Close has been
// called and every submitted request has completed.
func NewScheduler(eng *sim.Engine, name string, cfg Config) (*Scheduler, error) {
	return newScheduler(eng, name, cfg, roleUnified)
}

// newScheduler is NewScheduler with an explicit lifecycle role; the
// deployment driver (router.go) uses it to build the two pools.
func newScheduler(eng *sim.Engine, name string, cfg Config, ro role) (*Scheduler, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Model.KVBytesPerTokenPerGPU < 1 {
		return nil, fmt.Errorf("serve: model %s has KVBytesPerTokenPerGPU = %d", c.Model.Name, c.Model.KVBytesPerTokenPerGPU)
	}
	s := &Scheduler{
		cfg:        c,
		role:       ro,
		kvPerTok:   c.Model.KVBytesPerTokenPerGPU,
		eng:        eng,
		arrived:    sim.NewCond(eng),
		prefixSeen: make(map[uint64]bool),
		res:        &Result{},
		gpu:        sim.NewResource(name + "/gpu"),
	}
	if c.Model.MoE != nil {
		s.dispatch = sim.NewResource(name + "/moe-dispatch")
		s.combine = sim.NewResource(name + "/moe-combine")
	}
	if c.Metrics == MetricsStream {
		s.stream = newStreamStats(c.SLO, c.TierSLOs)
		s.res.Stream = s.stream
	}
	if c.KVPolicy == KVPaged {
		pager, err := NewKVPager(c.KVCapacityBytes, c.BlockTokens, c.Model.KVBytesPerTokenPerGPU)
		if err != nil {
			return nil, err
		}
		s.pager = pager
		s.swapper = NewKVSwapper(c.Env)
	}
	if c.Driver == DriverProc {
		eng.Spawn(name, s.loop)
	}
	return s, nil
}

// Submit enqueues req at the current virtual time. It must be called from
// engine context (an At callback or a running Proc) and before Close.
// Requests the replica can never admit must be filtered by the caller
// first — Run and RunRouted pre-validate every request via prepare and
// record the rejections — otherwise Submit panics rather than let the
// replica deadlock.
func (s *Scheduler) Submit(req Request) {
	if s.closed {
		panic(fmt.Sprintf("serve: Submit(request %d) after Close", req.ID))
	}
	if s.draining {
		panic(fmt.Sprintf("serve: Submit(request %d) on a draining replica", req.ID))
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
	if s.role == rolePrefill {
		// A prefill replica's outstanding work is prompt processing only;
		// output tokens are the decode pool's load.
		s.inflight += int64(req.PromptLen)
	} else {
		s.inflight += int64(req.PromptLen + req.OutputLen)
	}
	s.waiting = append(s.waiting, &reqState{req: req, seq: s.seq})
	s.seq++
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
	if s.closed {
		panic(fmt.Sprintf("serve: SubmitPrefilled(request %d) after Close", pr.Req.ID))
	}
	if err := s.cfg.checkRequest(pr.Req); err != nil {
		panic(err.Error())
	}
	if reason := s.cfg.rejectReason(pr.Req); reason != "" {
		panic(fmt.Sprintf("serve: request %d can never be admitted (%s) — the driver must filter it as a rejection", pr.Req.ID, reason))
	}
	if !s.hasReq || pr.Req.Arrival < s.firstArr {
		s.firstArr = pr.Req.Arrival
	}
	s.hasReq = true
	// Remaining work is decode only: tokens 2..OutputLen.
	s.inflight += int64(pr.Req.OutputLen - 1)
	s.waiting = append(s.waiting, &reqState{
		req:          pr.Req,
		seq:          s.seq,
		prefillDone:  pr.Req.PromptLen,
		generated:    1,
		admitAt:      pr.Admitted,
		admitted:     true,
		firstTok:     pr.FirstToken,
		prefixHit:    pr.PrefixHit,
		handoffBytes: pr.HandoffBytes,
		handoffDur:   pr.HandoffDur,
	})
	s.seq++
	s.notify()
}

// kvNeed is the KV-cache reservation KVReserve admission takes for a
// request: the full prompt+output footprint, except on a prefill replica,
// which only ever materializes prompt KV (outputs are generated on the
// decode pool).
func (s *Scheduler) kvNeed(r Request) int64 {
	if s.role == rolePrefill {
		return int64(r.PromptLen) * s.kvPerTok
	}
	return int64(r.PromptLen+r.OutputLen) * s.kvPerTok
}

// releaseKV returns bytes to the KVReserve budget from engine context. The
// disaggregation driver calls it on a prefill replica when a handoff
// completes — the prompt KV must stay resident during the fabric transfer —
// so admission re-checks the freed budget.
func (s *Scheduler) releaseKV(bytes int64) {
	s.kvUsed -= bytes
	s.notify()
}

// ensureBlocks grows rs's paged allocation until it covers tokens,
// returning false if the pager ran dry first (blocks already grabbed are
// kept — they stay useful on the next attempt or are freed on preemption).
func (s *Scheduler) ensureBlocks(rs *reqState, tokens int) bool {
	need := s.pager.BlocksFor(tokens)
	for len(rs.blocks) < need {
		b, ok := s.pager.Alloc()
		if !ok {
			return false
		}
		rs.blocks = append(rs.blocks, int32(b))
	}
	return true
}

// freeBlocks returns every block rs holds to the pager and wakes admission.
func (s *Scheduler) freeBlocks(rs *reqState) {
	for _, b := range rs.blocks {
		s.pager.Free(int(b))
	}
	rs.blocks = rs.blocks[:0]
	s.notify()
}

// admitTokens is the KV footprint (in tokens) admission must cover before
// rs can join the batch: the effective prompt for fresh and recompute-
// resumed requests, or the full resident context for a swapped-out one.
func (s *Scheduler) admitTokens(rs *reqState) int {
	t := rs.prompt()
	if k := rs.kvTokens(); k > t {
		t = k
	}
	return t
}

// effPrio is rs's effective priority class at `now`: its static class,
// promoted one class per AgingNs of queueing delay when aging is on.
func (s *Scheduler) effPrio(rs *reqState, now sim.Time) int {
	p := rs.req.Priority
	if p > 0 && s.cfg.AgingNs > 0 {
		boost := int(int64(now-rs.req.Arrival) / int64(s.cfg.AgingNs))
		if boost >= p {
			return 0
		}
		return p - boost
	}
	return p
}

// beforeAdmit orders the waiting queue: strict effective priority first,
// then the configured admission order, then submit order. With AdmitFIFO
// and uniform priorities it degenerates to pure submit order, which is the
// pre-paging scheduler's exact behavior.
func (s *Scheduler) beforeAdmit(a, b *reqState, now sim.Time) bool {
	pa, pb := s.effPrio(a, now), s.effPrio(b, now)
	if pa != pb {
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

// pickWaiting returns the index of the next admission candidate at `now`.
func (s *Scheduler) pickWaiting(now sim.Time) int {
	best := 0
	for i := 1; i < len(s.waiting); i++ {
		if s.beforeAdmit(s.waiting[i], s.waiting[best], now) {
			best = i
		}
	}
	return best
}

// canAdmit reports whether rs fits the replica's KV budget right now.
func (s *Scheduler) canAdmit(rs *reqState) bool {
	if s.pager != nil {
		return s.pager.FreeBlocks() >= s.pager.BlocksFor(s.admitTokens(rs))
	}
	return s.kvUsed+s.kvNeed(rs.req) <= s.cfg.KVCapacityBytes
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
	now := s.eng.Now()
	return s.canAdmit(s.waiting[s.pickWaiting(now)])
}

// transit is the number of requests owned by the replica but in neither
// the waiting queue nor the running batch: their swap transfer is in
// flight. The scheduler process may not exit while any remain.
func (s *Scheduler) transit() int { return s.swapIn + s.swapOut }

// Close marks the end of the arrival stream: once the queue, the running
// batch and any in-flight swaps drain, the scheduler process exits and the
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

// notify wakes the scheduling loop after a state change that may unblock
// it: an arrival, a KV release, a landed swap. Under DriverProc it is a
// Cond broadcast; under DriverCallback it schedules a same-instant wake
// event with the same dedup discipline (at most one pending wake, no-op
// while the loop is mid-iteration or done — exactly the cases where the
// Proc driver's cond has no waiter).
func (s *Scheduler) notify() {
	if s.cfg.Driver == DriverProc {
		s.arrived.Broadcast()
		return
	}
	if s.kicked || s.state == drvRunning || s.state == drvDone {
		return
	}
	s.kicked = true
	s.eng.At(s.eng.Now(), s.onKick)
}

// onKick is the callback driver's wake event: re-evaluate the parked
// state's predicate (the same predicates the Proc driver hands to
// Cond.Wait) and resume driving if it holds.
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
	return s.pager.FreeBlocks() > 0 || s.transit() == 0
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
// request completed, no transfers in flight). The drivers check it after
// the engine drains — the callback scheduler's replacement for the
// blocked-Proc deadlock detection.
func (s *Scheduler) Done() bool { return s.state == drvDone }

// drive is the callback driver's scheduling loop: the exact decision
// sequence of the Proc driver's loop/iterate, with the two Cond waits
// replaced by parked states and the iteration sleep replaced by a
// scheduled completion event (iterEnd). It runs inside an engine event
// (a wake kick or an iteration completion) and returns whenever the
// replica parks, starts a priced iteration, or exits.
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
		s.eng.At(now+dur, s.iterEnd)
		return
	}
}

// iterEnd is the completion event of a priced iteration: apply its
// effects at the completion time, then continue driving.
func (s *Scheduler) iterEnd() {
	s.completeIteration(s.eng.Now())
	s.drive()
}

// loop is the DriverProc scheduler process body: admit, form a batch,
// price it, sleep, apply effects; park when idle; exit when closed and
// drained. It shares formIteration/completeIteration with the callback
// driver — the only difference is how the loop blocks.
func (s *Scheduler) loop(p *sim.Proc) {
	for {
		if len(s.active) == 0 {
			// Park until something can make progress: a swap-in landed in
			// the batch, the next admission candidate fits, or the stream
			// is closed and fully drained (including swap transit).
			p.Wait(s.arrived, "waiting for arrivals", s.wakePred)
			if s.drained() {
				// Pred held with nothing resident: closed and fully drained.
				break
			}
		}
		dur, verdict := s.formIteration(p.Now())
		switch verdict {
		case iterIdle:
			continue
		case iterStalled:
			// Every resident decoder is stalled on KV frees still in
			// flight; park until a swap-out lands rather than spinning
			// empty iterations at the scheduler overhead.
			p.Wait(s.arrived, "stalled on kv frees", s.stallPred)
			continue
		}
		p.Sleep(dur)
		s.completeIteration(p.Now())
	}
	s.finish()
}

// moreImportant orders resident requests for victim selection: strict
// effective priority, then earliest arrival, then submit order. Victims
// are taken from the unimportant end — lowest class, latest arrival —
// which is also the request whose eviction wastes the least paid-for work
// under FIFO admission.
func (s *Scheduler) moreImportant(a, b *reqState, now sim.Time) bool {
	pa, pb := s.effPrio(a, now), s.effPrio(b, now)
	if pa != pb {
		return pa < pb
	}
	if a.req.Arrival != b.req.Arrival {
		return a.req.Arrival < b.req.Arrival
	}
	return a.seq < b.seq
}

// preempt evicts rs from the running batch at `now`. The recompute-or-swap
// choice compares closed-form costs under PreemptAuto: re-prefilling the
// resident context (one request, batch of 1) against one swap-out plus one
// swap-in of the resident KV shard over uncontended copy engines. Decode-
// pool replicas always swap — they cannot run prefill. The caller removes
// rs from s.active. Returns true when the victim's blocks were freed
// immediately (recompute); a swap victim's blocks free only when the
// copy engines finish reading them out.
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
	s.freeSoon += len(rs.blocks)
	// The victim's blocks stay allocated until the copy engines have read
	// them out; only then does it rejoin the waiting queue.
	s.eng.At(end, func() {
		s.swapOut--
		s.freeSoon -= len(rs.blocks)
		s.freeBlocks(rs)
		s.waiting = append(s.waiting, rs)
		s.notify()
	})
	return false
}

// growDecoders is the paged-mode growth pass: every running decoder must
// cover its next token's KV block before the iteration is formed. Requests
// are served in importance order; when the pager runs dry the least-
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
	order := make([]*reqState, len(s.active))
	copy(order, s.active)
	sort.SliceStable(order, func(i, j int) bool { return s.moreImportant(order[i], order[j], now) })
	var evicted map[*reqState]bool
	stalls := 0
	pending := s.freeSoon // blocks already on their way back to the pool
	j := len(order) - 1
	for i := 0; i < len(order); i++ {
		rs := order[i]
		if evicted[rs] || rs.prefillDone < rs.prompt() || rs.generated >= rs.req.OutputLen {
			continue
		}
		rs.stalled = false
		for !s.ensureBlocks(rs, rs.kvTokens()+1) {
			if pending >= s.pager.BlocksFor(rs.kvTokens()+1)-len(rs.blocks) {
				// In-flight frees cover the deficit: sit this iteration out.
				rs.stalled = true
				stalls++
				break
			}
			for j > i && evicted[order[j]] {
				j--
			}
			if evicted == nil {
				evicted = make(map[*reqState]bool)
			}
			if j <= i {
				// No less-important victim remains. If frees are in flight,
				// stall; otherwise the grower evicts itself, vLLM-style.
				if pending > 0 {
					rs.stalled = true
					stalls++
				} else {
					if !s.preempt(rs, now) {
						pending += len(rs.blocks)
					}
					evicted[rs] = true
				}
				break
			}
			victim := order[j]
			j--
			evicted[victim] = true
			if !s.preempt(victim, now) {
				pending += len(victim.blocks)
			}
		}
	}
	if len(evicted) > 0 {
		keep := s.active[:0]
		for _, rs := range s.active {
			if !evicted[rs] {
				keep = append(keep, rs)
			}
		}
		s.active = keep
	}
	return len(evicted) > 0 || stalls > 0
}

// iterVerdict is formIteration's outcome: run a priced iteration, or one
// of the two park conditions the drivers express differently.
type iterVerdict int

const (
	iterRun     iterVerdict = iota // a priced batch formed; sleep dur, then complete
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
	if s.pager != nil && len(s.active) > 0 {
		disturbed = s.growDecoders(now)
	}

	// Admission: the configured order while the batch bound and the KV
	// budget allow. Head-of-line blocking on KV is intentional — admitting
	// smaller requests around a stuck candidate would starve long prompts.
	// In-flight swap-ins count toward the batch bound; they are already
	// committed residents.
	for !disturbed && len(s.waiting) > 0 && len(s.active)+s.swapIn < c.MaxBatch {
		idx := s.pickWaiting(now)
		head := s.waiting[idx]
		if !s.canAdmit(head) {
			break
		}
		s.waiting = append(s.waiting[:idx], s.waiting[idx+1:]...)
		if s.pager != nil {
			if !s.ensureBlocks(head, s.admitTokens(head)) {
				panic(fmt.Sprintf("serve: request %d lost KV blocks admission just checked", head.req.ID))
			}
		} else {
			head.kvReserved = s.kvNeed(head.req)
			s.kvUsed += head.kvReserved
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
		s.active = append(s.active, head)
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
	dur := c.SchedOverhead
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
	keep := s.active[:0]
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
				}, end, func() {
					if s.pager != nil {
						s.freeBlocks(pinned)
					} else {
						s.releaseKV(pinned.kvReserved)
					}
				})
			}
		case rs.generated >= rs.req.OutputLen && rs.prefillDone == rs.prompt():
			// Complete. On a prefill replica this is the one-token case:
			// the single output token came from prefill, no decode phase
			// exists, so the request never visits the decode pool.
			if s.pager != nil {
				s.freeBlocks(rs)
			} else {
				s.kvUsed -= rs.kvReserved
			}
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
			keep = append(keep, rs)
		}
	}
	s.active = keep
}

// record captures one completed request's lifecycle row: retained under
// MetricsExact, folded into the streaming accumulators (and discarded)
// under MetricsStream.
func (s *Scheduler) record(m RequestMetrics) {
	if s.stream != nil {
		s.stream.observe(m)
		return
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
		s.active = append(s.active, rs)
		s.notify()
	})
}

// Run replays the workload against a single replica and returns its
// per-request metrics. It builds a fresh discrete-event engine, schedules
// every arrival as an engine event, and runs the scheduler process until
// the last request completes. Requests the config can never admit are
// recorded as Rejected rows (appended after the completed requests)
// instead of failing the run.
func Run(cfg Config, wl Workload) (*Result, error) {
	c, admitted, rejected, err := prepare(cfg, wl)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	s, err := NewScheduler(eng, "serve-scheduler", cfg)
	if err != nil {
		return nil, err
	}
	s.res.Workload = wl.Name
	if c.Metrics == MetricsExact {
		s.res.PerRequest = make([]RequestMetrics, 0, len(admitted.Requests))
	}
	var last sim.Time
	for _, r := range admitted.Requests {
		req := r
		eng.At(req.Arrival, func() { s.Submit(req) })
		if req.Arrival > last {
			last = req.Arrival
		}
	}
	eng.At(last, s.Close)
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := checkDrained(s); err != nil {
		return nil, err
	}
	res := s.Result()
	res.Rejected += len(rejected)
	if s.stream != nil {
		for _, m := range rejected {
			s.stream.addRejected(m.Priority)
		}
	} else {
		res.PerRequest = append(res.PerRequest, rejected...)
	}
	return res, nil
}

// checkDrained verifies every scheduler exited cleanly once the engine
// drained. Under DriverProc a stuck replica surfaces as the engine's
// blocked-Proc DeadlockError; the callback driver has no goroutine to
// detect, so the drivers assert the terminal state explicitly instead.
func checkDrained(ss ...*Scheduler) error {
	for _, s := range ss {
		if s.cfg.Driver == DriverProc || s.Done() {
			continue
		}
		return fmt.Errorf("serve: engine drained but a scheduler never finished "+
			"(%d active, %d waiting, %d in transit, closed=%v)",
			len(s.active), len(s.waiting), s.transit(), s.closed)
	}
	return nil
}
