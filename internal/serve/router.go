package serve

// The deployment driver: N replica engines — each a full continuous-
// batching Scheduler over its own simulated cluster — behind an
// arrival-splitting routing policy, all inside one discrete-event engine.
// The same driver adds a decode pool behind KV handoffs (disagg.go) or a
// fleet-sizing control loop (autoscale.go). This is the layer where
// cluster-scale serving is decided: at equal
// offered load, tail latency and goodput are set by how arrivals are
// split, not just by how fast one replica's kernels and collectives run.
//
// Everything stays deterministic: arrivals are engine events in
// (arrival, workload index) order, each policy decision is a pure
// function of the engine state at the arrival instant, and replica event
// interleavings follow the engine's total (time, FIFO) order — so
// results are bit-stable and golden-gated like every other artifact.

import (
	"cmp"
	"fmt"
	"slices"

	"mscclpp/internal/sim"
)

// RouterConfig parameterizes a deployment. Leaving Decode and Scale at
// their zero values runs a fixed unified fleet.
type RouterConfig struct {
	// Replicas is the number of replicas serving arrivals — the prefill
	// pool when Decode > 0, the initial fleet when Scale is set. >= 1.
	Replicas int
	// Policy splits arrivals (and a drained replica's queue) across the
	// replicas serving arrivals. Defaults to token-weighted JSQ. Must be
	// a fresh instance (policies carry routing state).
	Policy Policy
	// Replica configures every replica engine; each gets its own
	// Scheduler, KV budget and metrics.
	Replica Config
	// Decode > 0 adds that many decode replicas behind the Replicas
	// prefill replicas; JSQ places each finished prefill, whose KV cache
	// is handed off over the fabric. 0 runs a unified fleet.
	Decode int
	// Scale, when set, resizes a unified fleet under a control loop; nil
	// keeps it fixed with no control ticks. Excludes Decode.
	Scale *Scale
}

// Scale configures the control loop of an elastic fleet.
type Scale struct {
	// Policy decides the fleet size each control interval. Required, and
	// must be a fresh instance (policies carry controller state).
	Policy ScalePolicy
	// Max bounds the fleet: decisions are clamped into [1, Max]. Must be
	// at least RouterConfig.Replicas.
	Max int
	// Interval is the control-loop sampling period. Defaults to 15 s.
	Interval sim.Duration
	// ProvisionDelay is how long a newly provisioned replica boots before
	// it may admit requests. Defaults to 30 s.
	ProvisionDelay sim.Duration
}

// RoutedResult is the outcome of one deployment: the per-replica results
// and their merge (MergeResults) as the cluster-level view, plus the
// handoff, fleet, control-loop and economics records.
type RoutedResult struct {
	// Policy names the arrival routing policy.
	Policy string `json:"policy"`
	// PerReplica holds one Result per replica ever booted, in boot order,
	// the prefill pool before the decode pool. Prefill replicas record
	// rows only for one-token requests, which never hand off.
	PerReplica []*Result `json:"per_replica"`
	Merged     *Result   `json:"merged"`

	// Handoffs counts KV transfers; HandoffBytes sums bytes on the wire
	// (per-GPU shard times the tensor-parallel lane count, over all
	// handoffs); HandoffMeanNs/HandoffMaxNs aggregate transfer durations
	// including fabric occupancy waits.
	Handoffs      int          `json:"handoffs,omitempty"`
	HandoffBytes  int64        `json:"handoff_bytes,omitempty"`
	HandoffMeanNs sim.Duration `json:"handoff_mean_ns,omitempty"`
	HandoffMaxNs  sim.Duration `json:"handoff_max_ns,omitempty"`

	// Fleet is the fleet-size timeline; Drains the scale-down audit
	// records; Samples the control-loop inputs in sampling order.
	Fleet   []FleetEvent   `json:"fleet,omitempty"`
	Drains  []DrainEvent   `json:"drains,omitempty"`
	Samples []ScaleSignals `json:"samples,omitempty"`
	// ScaleUps and ScaleDowns count replica-level actuations (a decision
	// moving the fleet by two counts twice).
	ScaleUps   int `json:"scale_ups,omitempty"`
	ScaleDowns int `json:"scale_downs,omitempty"`
	// Econ is the run's economics ledger.
	Econ EconReport `json:"econ"`
}

// Summarize aggregates the cluster-level (merged) result under an SLO.
func (r *RoutedResult) Summarize(slo SLO) Summary { return r.Merged.Summarize(slo) }

// validate rejects configurations RunRouted cannot run.
func (rc RouterConfig) validate() error {
	switch sc := rc.Scale; {
	case rc.Replicas < 1:
		return fmt.Errorf("serve: RouterConfig.Replicas = %d", rc.Replicas)
	case rc.Decode < 0:
		return fmt.Errorf("serve: RouterConfig.Decode = %d", rc.Decode)
	case sc == nil:
		return nil
	case rc.Decode > 0:
		return fmt.Errorf("serve: RouterConfig.Scale cannot resize a disaggregated deployment (Decode = %d)", rc.Decode)
	case sc.Policy == nil:
		return fmt.Errorf("serve: Scale.Policy is nil")
	case sc.Max < rc.Replicas:
		return fmt.Errorf("serve: Scale.Max = %d is below Replicas = %d", sc.Max, rc.Replicas)
	case sc.Interval < 0 || sc.ProvisionDelay < 0:
		return fmt.Errorf("serve: Scale interval=%d provision-delay=%d", sc.Interval, sc.ProvisionDelay)
	}
	return nil
}

// slotState is a replica's lifecycle state.
type slotState int

const (
	slotProvisioning slotState = iota // booting; not routable yet
	slotCanceled                      // booting, but scale-down canceled it
	slotActive                        // routable
	slotDraining                      // finishing residents; not routable
	slotRetired                       // fully drained
)

// replica is the driver-side record of one replica the deployment ever
// booted.
type replica struct {
	id    int
	role  role
	s     *Scheduler
	state slotState

	provisionedAt sim.Time
	retiredAt     sim.Time
	drainIdx      int // index into RoutedResult.Drains, -1 if never drained

	// Sampling state: previous cumulative gpu busy time.
	lastBusy sim.Duration
}

// deployment is the state of one RunRouted call.
type deployment struct {
	eng      *sim.Engine
	c        Config
	workload string
	pol      Policy
	out      *RoutedResult

	fleet  []*replica   // boot order
	active []*Scheduler // routable replicas serving arrivals
	decode []*Scheduler // routable decode replicas
	peak   int

	// Decode pools: the handoff fabric (decode replica j is group
	// nPrefill+j) and the multi-token requests due before it closes.
	link      *KVLink
	nPrefill  int
	expect    int
	delivered int

	streamEnded bool
}

// RunRouted replays the workload against the deployment rc describes and
// returns per-replica and merged metrics. Each arrival is an engine event
// that asks the policy for a replica (with every routable replica's live
// queue state visible) and submits the request there; replicas then run
// their continuous-batching schedules side by side in one virtual
// timeline, and so do the KV handoffs and control ticks.
//
// The arrivals come from one engine cursor (sim.Engine.Feed) over the
// admitted requests in (arrival, workload index) order, so the engine
// holds one pending arrival at a time instead of one event per request,
// and each fires in the order one At per request would give it. An
// admitted slice out of arrival order is stable-sorted in a copy; the
// caller's Workload is never modified.
func RunRouted(rc RouterConfig, wl Workload) (*RoutedResult, error) {
	if err := rc.validate(); err != nil {
		return nil, err
	}
	c, admitted, rejected, err := prepare(rc.Replica, wl)
	if err != nil {
		return nil, err
	}
	pol := cmp.Or(rc.Policy, NewJSQ())
	d := &deployment{eng: sim.NewEngine(), c: c, workload: wl.Name, pol: pol, nPrefill: rc.Replicas,
		out: &RoutedResult{Policy: pol.Name()}}

	arrivalRole := roleUnified
	if rc.Decode > 0 {
		arrivalRole = rolePrefill
		// The handoff fabric spans both pools, each replica owning its own
		// copy of the per-replica environment's nodes, so every handoff
		// crosses nodes and pays RDMA.
		fabEnv := *c.Env
		fabEnv.Name = c.Env.Name + "-kv"
		fabEnv.Nodes = c.Env.Nodes * (rc.Replicas + rc.Decode)
		if d.link, err = NewKVLink(&fabEnv, rc.Replicas+rc.Decode); err != nil {
			return nil, err
		}
	}
	for i := 0; i < rc.Replicas; i++ {
		d.add(arrivalRole, 0)
	}
	for j := 0; j < rc.Decode; j++ {
		d.add(roleDecode, 0)
	}
	for _, sl := range d.fleet {
		if err := d.boot(sl); err != nil {
			return nil, err
		}
		// Exact rows are recorded where requests finish: size a unified
		// replica's first row allocation for its even share of the trace.
		if c.Metrics == MetricsExact && rc.Decode == 0 {
			sl.s.rowsHint = (len(admitted.Requests) + rc.Replicas - 1) / rc.Replicas
		}
		sl.state = slotActive
	}
	d.rebuild()
	if rc.Scale != nil {
		d.control(*rc.Scale)
	}

	reqs := admitted.Requests
	byArrival := func(a, b Request) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(reqs, byArrival) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, byArrival)
	}
	arrivals := make([]sim.Time, len(reqs))
	for i, r := range reqs {
		arrivals[i] = r.Arrival
		if r.OutputLen > 1 {
			d.expect++
		}
	}
	d.eng.Feed(arrivals, func(i int) { d.route(reqs[i]) })
	var last sim.Time
	if len(arrivals) > 0 {
		last = arrivals[len(arrivals)-1]
	}
	// Close is scheduled at the last arrival, after every same-instant
	// Submit (FIFO order). The decode pool closes once every multi-token
	// request has been delivered (one-token requests never hand off).
	d.eng.At(last, func() {
		d.streamEnded = true
		d.closePool(arrivalRole)
		d.record(d.eng.Now(), "close", -1)
		if d.expect == 0 {
			d.closePool(roleDecode)
		}
	})
	if err := d.eng.Run(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	out := d.out
	for _, sl := range d.fleet {
		if err := checkDrained(sl.s); err != nil {
			return nil, err
		}
		out.PerReplica = append(out.PerReplica, sl.s.Result())
	}
	// Requests no replica could ever admit were filtered by prepare; the
	// rejected part keeps one record per offered request in the merge.
	parts := append(append([]*Result{}, out.PerReplica...), rejectedPart(c, rejected))
	out.Merged = MergeResults(parts...)
	out.Merged.Workload = wl.Name
	if out.Handoffs > 0 {
		out.HandoffMeanNs /= sim.Duration(out.Handoffs)
	}
	out.Econ = econReport(c, d.fleet, out.Merged, d.peak)
	return out, nil
}

// add appends a not-yet-booted replica of the given role to the fleet.
func (d *deployment) add(ro role, now sim.Time) *replica {
	sl := &replica{id: len(d.fleet), role: ro, provisionedAt: now, drainIdx: -1}
	d.fleet = append(d.fleet, sl)
	return sl
}

// boot creates sl's scheduler: engine names replica-i, prefill-i or
// decode-j, the KV handoff hook on prefill replicas, and the retirement
// hook that stamps the fleet timeline and the drain audit.
func (d *deployment) boot(sl *replica) error {
	name := fmt.Sprintf("replica-%d", sl.id)
	switch sl.role {
	case rolePrefill:
		name = fmt.Sprintf("prefill-%d", sl.id)
	case roleDecode:
		name = fmt.Sprintf("decode-%d", sl.id-d.nPrefill)
	}
	s, err := newScheduler(d.eng, name, d.c, sl.role)
	if err != nil {
		return err
	}
	s.res.Workload = d.workload
	if sl.role == rolePrefill {
		s.onPrefilled = d.handoff(sl.id)
	}
	s.onRetired = func(at sim.Time) {
		stranded := s.ActiveRequests() + s.QueuedRequests() + s.transit()
		sl.state = slotRetired
		sl.retiredAt = at
		if sl.drainIdx >= 0 {
			d.out.Drains[sl.drainIdx].RetiredNs = at
			d.out.Drains[sl.drainIdx].Stranded = stranded
		}
		d.rebuild()
		d.record(at, "retire", sl.id)
	}
	sl.s = s
	return nil
}

// rebuild refreshes the routable sets after a lifecycle transition.
func (d *deployment) rebuild() {
	d.active, d.decode = d.active[:0], d.decode[:0]
	for _, sl := range d.fleet {
		switch {
		case sl.state != slotActive:
		case sl.role == roleDecode:
			d.decode = append(d.decode, sl.s)
		default:
			d.active = append(d.active, sl.s)
		}
	}
	if n := len(d.active) + len(d.decode); n > d.peak {
		d.peak = n
	}
}

// counts tallies the fleet by lifecycle state (canceled boots excluded).
func (d *deployment) counts() (active, prov, drain int) {
	for _, sl := range d.fleet {
		switch sl.state {
		case slotProvisioning:
			prov++
		case slotActive:
			active++
		case slotDraining:
			drain++
		}
	}
	return
}

// record appends a fleet-timeline entry.
func (d *deployment) record(t sim.Time, ev string, id int) {
	a, p, dr := d.counts()
	d.out.Fleet = append(d.out.Fleet, FleetEvent{TimeNs: t, Event: ev, Replica: id,
		Active: a, Provisioning: p, Draining: dr})
}

// closePool closes every routable replica of the given role.
func (d *deployment) closePool(ro role) {
	for _, sl := range d.fleet {
		if sl.state == slotActive && sl.role == ro {
			sl.s.Close()
		}
	}
}

// pick asks pol for a replica index among scheds and bounds-checks it.
func pick(pol Policy, req Request, scheds []*Scheduler) int {
	i := pol.Pick(req, scheds)
	if i < 0 || i >= len(scheds) {
		panic(fmt.Sprintf("serve: policy %s picked replica %d of %d", pol.Name(), i, len(scheds)))
	}
	return i
}

// route submits req to the routable replica the policy picks.
func (d *deployment) route(req Request) {
	d.active[pick(d.pol, req, d.active)].Submit(req)
}

// handoff is prefill replica src's onPrefilled hook: place the finished
// prefill on a decode replica, price the KV transfer on the fabric, and
// deliver it when the transfer ends.
func (d *deployment) handoff(src int) func(Prefilled, sim.Time, func()) {
	return func(pr Prefilled, end sim.Time, release func()) {
		j := pick(NewJSQ(), pr.Req, d.decode)
		dst := d.decode[j]
		shard := d.c.Model.KVShardBytes(pr.Req.PromptLen)
		hEnd := d.link.Transfer(end, src, d.nPrefill+j, shard)
		pr.HandoffBytes = shard * int64(d.c.Env.TotalGPUs())
		pr.HandoffDur = hEnd - end
		out := d.out
		out.Handoffs++
		out.HandoffBytes += pr.HandoffBytes
		out.HandoffMeanNs += pr.HandoffDur // sum here; divided after the run
		if pr.HandoffDur > out.HandoffMaxNs {
			out.HandoffMaxNs = pr.HandoffDur
		}
		// Commit the decode work to the chosen replica immediately so
		// later placement decisions see transfers still on the wire —
		// otherwise every prefill completing within one handoff window
		// would tie-break onto the same decode replica.
		pendTok := int64(pr.Req.OutputLen - 1)
		dst.reservePending(pendTok)
		// The prompt KV stays pinned on the prefill replica until the
		// transfer ends; only then may the decode pool admit. The release
		// callback returns the request's KV blocks to the prefill
		// scheduler's ledger.
		d.eng.At(hEnd, func() {
			release()
			dst.reservePending(-pendTok)
			dst.SubmitPrefilled(pr)
			d.delivered++
			if d.delivered == d.expect {
				d.closePool(roleDecode)
			}
		})
	}
}

// rejectedPart wraps prepare's up-front rejections as a mergeable Result
// in the configured metrics mode: per-tier rejection counters, plus the
// rows under MetricsExact.
func rejectedPart(c Config, rejected []RequestMetrics) *Result {
	r := &Result{Rejected: len(rejected), Stream: newStreamStats(c.Metrics, c.SLO, c.TierSLOs)}
	for _, m := range rejected {
		r.Stream.observe(m)
	}
	if c.Metrics == MetricsExact {
		r.PerRequest = rejected
	}
	return r
}
