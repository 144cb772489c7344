package serve

// SLO-driven autoscaling: a control-plane loop that runs inside the same
// discrete-event timeline as the replica fleet it scales. Every Interval
// of virtual time the loop samples fleet signals — queue depth, in-flight
// tokens, windowed gpu-counter utilization, windowed SLO attainment from
// the streaming accumulators — hands them to a pluggable ScalePolicy, and
// actuates the difference:
//
//	sample --> ScalePolicy.Desired --> clamp [1, Max] --> actuate
//
//	scale-up:   a fresh Scheduler is provisioned now but joins the
//	            routable set only ProvisionDelay later (boot, weight
//	            load). Until then it counts as capacity-in-flight, so the
//	            policy is not asked again for replicas it already bought.
//	scale-down: capacity still provisioning is canceled first (cheapest);
//	            then the least-loaded active replica is drained — it stops
//	            admitting, hands its never-admitted queue back to the
//	            router, finishes its residents, and retires.
//
// Every decision is a pure function of engine state at the sampling
// instant, so autoscaled runs are bit-stable and golden-gated like every
// other artifact. The loop runs when RouterConfig.Scale is set. Every
// deployment, elastic or not, also keeps the economics ledger: each
// replica's provision-to-retire lifetime is billed at GPUHourPrice, and
// EconReport derives goodput-per-GPU-hour and cost-per-million-tokens
// from the merged (sketch-pooled) metrics.

import (
	"cmp"
	"fmt"
	"math"

	"mscclpp/internal/sim"
)

// ScaleSignals is one control-loop sample of fleet state — the only view
// of the world a ScalePolicy gets.
type ScaleSignals struct {
	// TimeNs is the sampling instant.
	TimeNs sim.Time `json:"time_ns"`
	// Active, Provisioning and Draining count replicas by lifecycle state
	// at the sampling instant (canceled provisioning slots excluded).
	Active       int `json:"active"`
	Provisioning int `json:"provisioning,omitempty"`
	Draining     int `json:"draining,omitempty"`
	// Min (always 1) and Max are the fleet bounds the driver clamps
	// decisions to; policies may use them (the static baseline pins to
	// Max).
	Min int `json:"min"`
	Max int `json:"max"`
	// QueuedRequests and InFlightTokens sum the active replicas' admission
	// queues and token-weighted outstanding work.
	QueuedRequests int   `json:"queued_requests,omitempty"`
	InFlightTokens int64 `json:"inflight_tokens,omitempty"`
	// Utilization is the active fleet's busy fraction over the window
	// since the previous sample: the gpu-counter busy-time delta divided
	// by window x active replicas. It can briefly exceed 1 because an
	// iteration books its full duration when it is formed.
	Utilization float64 `json:"utilization"`
	// Attainment is the fraction of requests completed in the window that
	// met their tier's SLO (1 when nothing completed); Completed is the
	// window's completion count.
	Attainment float64 `json:"attainment"`
	Completed  int64   `json:"completed,omitempty"`
}

// ScalePolicy maps a signal sample to the desired active-replica count.
// An instance is stateful (the PID controller integrates across samples)
// and bound to one RunRouted call — construct a fresh one per run.
// The driver clamps the returned value to [Min, Max], so policies may
// return out-of-range or extreme values without breaking the fleet.
type ScalePolicy interface {
	// Name is the stable policy identifier used in reports and CLI flags.
	Name() string
	// Desired returns the replica count the policy wants active. Called in
	// engine context once per control interval; must be a deterministic
	// function of the sample sequence.
	Desired(sig ScaleSignals) int
}

// clampReplicas bounds a policy decision to a sane fleet size: n is
// clamped into [1, hi], with hi floored at 1.
func clampReplicas(n, hi int) int { return min(max(n, 1), max(hi, 1)) }

// staticScale holds the fleet at its maximum.
type staticScale struct{}

// NewStaticScale returns the static baseline policy: the fleet is pinned
// to its maximum regardless of load — static peak provisioning, the
// baseline an autoscaler's GPU-hour savings are measured against.
func NewStaticScale() ScalePolicy { return staticScale{} }

func (staticScale) Name() string { return "static" }

func (staticScale) Desired(sig ScaleSignals) int { return sig.Max }

// targetUtil sizes the fleet so measured utilization lands on
// targetUtilization.
type targetUtil struct{}

// targetUtilization is the busy fraction the target-util policy aims for.
const targetUtilization = 0.70

// NewTargetUtilization returns the target-utilization policy: the fleet
// is resized so the measured busy fraction lands on targetUtilization —
// desired = ceil(active x utilization / target) — the classic
// CPU-utilization autoscaling rule applied to the gpu-counter signal.
// It never scales down while requests are queued (a backlog means the
// sampled utilization understates demand).
func NewTargetUtilization() ScalePolicy { return targetUtil{} }

func (targetUtil) Name() string { return "target-util" }

func (targetUtil) Desired(sig ScaleSignals) int {
	util := sig.Utilization
	if math.IsNaN(util) || math.IsInf(util, 0) || util < 0 {
		return sig.Active
	}
	raw := float64(sig.Active) * util / targetUtilization
	if sig.QueuedRequests > 0 && raw < float64(sig.Active) {
		raw = float64(sig.Active)
	}
	// Bound before the int conversion: a fuzzer-grade utilization value
	// must clamp, not overflow.
	if lim := float64(sig.Max); sig.Max > 0 && raw > lim {
		raw = lim
	}
	if raw < 0 || math.IsNaN(raw) {
		raw = 0
	}
	return int(math.Ceil(raw))
}

// sloPID trades fleet size against windowed SLO attainment.
type sloPID struct{ integ float64 }

// The SLO controller's attainment objective and its proportional and
// integral gains.
const (
	sloPIDFloor = 0.95
	sloPIDKp    = 10
	sloPIDKi    = 2
)

// sloPIDShedCeil is the projected-utilization ceiling of the controller's
// scale-down guard: a shed that would push the survivors' busy fraction
// past this is refused, so a fully attaining fleet at peak load is not
// chattered down into an outage.
const sloPIDShedCeil = 0.75

// NewSLOPID returns the SLO-attainment PI controller: the error term is
// sloPIDFloor minus the window's attainment, so missing the objective pushes
// the fleet up hard (proportional term) while sustained perfect
// attainment accumulates gentle downscale pressure (integral term,
// anti-windup clamped). Actuation is asymmetric, the standard production
// rule: scale-up is unbounded (an outage is expensive), scale-down is at
// most one replica per interval and only when the survivors' projected
// utilization stays under sloPIDShedCeil with an empty admission queue —
// attainment is a lagging, completion-time signal, so without the guard
// a perfectly attaining fleet at peak load would shed straight into a
// backlog it then needs several boot delays to clear. The policy reads
// attainment, so the replica Config must set SLO/TierSLOs — with no
// objectives every completion "meets SLO" and the controller sheds to
// the minimum.
func NewSLOPID() ScalePolicy { return &sloPID{} }

func (*sloPID) Name() string { return "slo-pid" }

func (p *sloPID) Desired(sig ScaleSignals) int {
	att := sig.Attainment
	if math.IsNaN(att) || math.IsInf(att, 0) {
		return sig.Active
	}
	if att < 0 {
		att = 0
	}
	if att > 1 {
		att = 1
	}
	err := sloPIDFloor - att
	p.integ += err
	// Anti-windup: bound the integral so sustained perfect attainment
	// cannot bank more than steady downscale pressure, and a long outage
	// cannot demand an unbounded fleet once attainment recovers.
	const imax = 1.0
	if p.integ > imax {
		p.integ = imax
	}
	if p.integ < -imax {
		p.integ = -imax
	}
	delta := int(math.Round(sloPIDKp*err + sloPIDKi*p.integ))
	if delta >= 0 {
		return sig.Active + delta
	}
	// Scale-down: rate-limited and guarded.
	if sig.Active <= 1 || sig.QueuedRequests > 0 {
		return sig.Active
	}
	util := sig.Utilization
	if math.IsNaN(util) || math.IsInf(util, 0) || util < 0 {
		return sig.Active
	}
	if util*float64(sig.Active)/float64(sig.Active-1) > sloPIDShedCeil {
		return sig.Active
	}
	return sig.Active - 1
}

// scalePolicyFactories maps CLI/scenario names to constructors,
// mirroring policyFactories for routing policies.
var scalePolicyFactories = map[string]func() ScalePolicy{
	"static":      NewStaticScale,
	"target-util": NewTargetUtilization,
	"slo-pid":     NewSLOPID,
}

// ScalePolicyByName constructs a fresh default-parameter scale policy
// from its name (static, target-util, slo-pid).
func ScalePolicyByName(name string) (ScalePolicy, error) {
	return byName("scale", scalePolicyFactories, name)
}

// ScalePolicyNames returns the registered scale-policy names, sorted.
func ScalePolicyNames() []string { return registryNames(scalePolicyFactories) }

// FleetEvent is one entry of the fleet-size timeline: a lifecycle
// transition and the fleet composition right after it.
type FleetEvent struct {
	TimeNs sim.Time `json:"time_ns"`
	// Event is the transition: provision, activate, cancel, drain, retire,
	// or close (end of the arrival stream).
	Event string `json:"event"`
	// Replica is the slot the transition applies to (-1 for close).
	Replica int `json:"replica"`
	// Active, Provisioning and Draining count replicas by state after the
	// transition.
	Active       int `json:"active"`
	Provisioning int `json:"provisioning,omitempty"`
	Draining     int `json:"draining,omitempty"`
}

// DrainEvent is the audit record of one graceful scale-down.
type DrainEvent struct {
	TimeNs sim.Time `json:"time_ns"`
	// Replica is the drained slot.
	Replica int `json:"replica"`
	// HandedOff counts never-admitted requests re-routed to surviving
	// replicas at drain time; Residents counts requests that stayed
	// (running, resuming or in swap transit) to finish locally.
	HandedOff int `json:"handed_off"`
	Residents int `json:"residents"`
	// RetiredNs is when the replica finished its residents and retired.
	RetiredNs sim.Time `json:"retired_ns"`
	// Stranded counts requests still owned by the replica at retirement —
	// always zero unless the drain machinery is broken; recorded so
	// scenarios can assert it rather than assume it.
	Stranded int `json:"stranded"`
}

// EconReport is the economics ledger of one deployment: every replica's
// provision-to-retire lifetime billed at GPUHourPrice, against the
// SLO-compliant tokens the fleet actually produced.
type EconReport struct {
	// GPUHours sums replica lifetimes (provision to retire, boot time
	// included) times the per-replica GPU count, in virtual hours.
	GPUHours float64 `json:"gpu_hours"`
	// GPUHourPrice is the billing rate; CostUSD = GPUHours x GPUHourPrice.
	GPUHourPrice float64 `json:"gpu_hour_price"`
	CostUSD      float64 `json:"cost_usd"`
	// PeakReplicas is the largest simultaneously active fleet;
	// MeanReplicas is the time-weighted average over the run span.
	PeakReplicas int     `json:"peak_replicas"`
	MeanReplicas float64 `json:"mean_replicas"`
	// GoodTokens counts output tokens of SLO-compliant requests;
	// GoodputPerGPUHour and CostPerMTok derive from it.
	GoodTokens        int64   `json:"good_tokens"`
	GoodputPerGPUHour float64 `json:"goodput_per_gpu_hour"`
	CostPerMTok       float64 `json:"cost_per_mtok"`
}

// GPUHourPrice is the $/GPU-hour rate EconReport bills replica lifetimes
// at, a round on-demand price for one datacenter GPU.
const GPUHourPrice = 2.5

// control starts the control loop of an elastic fleet: every Interval it
// samples the fleet, asks the scale policy for a size, clamps it to
// [1, Max] and actuates the difference.
func (d *deployment) control(sc Scale) {
	interval, delay := cmp.Or(sc.Interval, 15*sim.Second), cmp.Or(sc.ProvisionDelay, 30*sim.Second)
	var prevT sim.Time
	var prevMet, prevDone int64
	sample := func(now sim.Time) ScaleSignals {
		a, p, dr := d.counts()
		sig := ScaleSignals{TimeNs: now, Active: a, Provisioning: p, Draining: dr, Min: 1, Max: sc.Max}
		var busyDelta sim.Duration
		var met, done int64
		for _, sl := range d.fleet {
			if sl.state == slotActive {
				sig.QueuedRequests += sl.s.QueuedRequests()
				sig.InFlightTokens += sl.s.InFlightTokens()
				busyDelta += sl.s.GPUBusy() - sl.lastBusy
			}
			sl.lastBusy = sl.s.GPUBusy()
			m, dn := d.totals(sl)
			met += m
			done += dn
		}
		if w := now - prevT; w > 0 && a > 0 {
			sig.Utilization = float64(busyDelta) / (float64(w) * float64(a))
		}
		sig.Completed = done - prevDone
		sig.Attainment = 1
		if sig.Completed > 0 {
			sig.Attainment = float64(met-prevMet) / float64(sig.Completed)
		}
		prevT, prevMet, prevDone = now, met, done
		d.out.Samples = append(d.out.Samples, sig)
		return sig
	}

	var tick func()
	tick = func() {
		if d.streamEnded {
			return
		}
		now := d.eng.Now()
		sig := sample(now)
		desired := clampReplicas(sc.Policy.Desired(sig), sc.Max)
		cur := sig.Active + sig.Provisioning
		if desired > cur {
			d.out.ScaleUps += desired - cur
			for i := cur; i < desired; i++ {
				d.provision(now, delay)
			}
		} else if desired < cur {
			down := cur - desired
			d.out.ScaleDowns += down
			// Cancel capacity still booting first — it holds no requests.
			for _, sl := range d.fleet {
				if down == 0 {
					break
				}
				if sl.state == slotProvisioning {
					sl.state = slotCanceled
					d.record(now, "cancel", sl.id)
					down--
				}
			}
			for ; down > 0; down-- {
				d.drainOne(now)
			}
		}
		d.eng.At(now+interval, tick)
	}
	d.eng.At(interval, tick)
}

// provision boots a fresh replica now that joins the routable set after
// delay, unless the loop canceled it or the arrival stream ended first.
func (d *deployment) provision(now sim.Time, delay sim.Duration) {
	sl := d.add(roleUnified, now)
	if err := d.boot(sl); err != nil {
		// prepare validated the identical config; this cannot fire.
		panic(fmt.Sprintf("serve: autoscale spawn: %v", err))
	}
	d.record(now, "provision", sl.id)
	d.eng.At(now+delay, func() {
		if sl.state == slotCanceled || d.streamEnded {
			// The boot completes into a fleet that no longer wants it:
			// the lifetime is still billed, but it never admits.
			sl.s.Close()
			return
		}
		sl.state = slotActive
		d.rebuild()
		d.record(d.eng.Now(), "activate", sl.id)
	})
}

// drainOne gracefully retires the least-loaded active replica (newest on
// ties): it stops admitting, its never-admitted requests are re-routed to
// the survivors, and its residents finish locally.
func (d *deployment) drainOne(now sim.Time) {
	var victim *replica
	for _, sl := range d.fleet {
		if sl.state != slotActive {
			continue
		}
		if victim == nil || sl.s.InFlightTokens() < victim.s.InFlightTokens() ||
			(sl.s.InFlightTokens() == victim.s.InFlightTokens() && sl.id > victim.id) {
			victim = sl
		}
	}
	if victim == nil {
		return
	}
	victim.state = slotDraining
	d.rebuild()
	handoff := victim.s.Drain()
	victim.drainIdx = len(d.out.Drains)
	d.out.Drains = append(d.out.Drains, DrainEvent{
		TimeNs:    now,
		Replica:   victim.id,
		HandedOff: len(handoff),
		Residents: victim.s.ActiveRequests() + victim.s.QueuedRequests() + victim.s.transit(),
	})
	for _, req := range handoff {
		d.route(req)
	}
	d.record(now, "drain", victim.id)
}

// totals returns a replica's cumulative completed/SLO-met request counts:
// streamed tier counters, or (exact mode) an incremental scan of the rows
// appended since the last sample.
func (d *deployment) totals(sl *replica) (met, done int64) {
	if sl.s.stream != nil {
		for _, t := range sl.s.stream.Tiers {
			met += t.Met
			done += t.Requests - t.Rejected
		}
		return met, done
	}
	rows := sl.s.res.PerRequest
	for ; sl.cursor < len(rows); sl.cursor++ {
		m := rows[sl.cursor]
		if m.Rejected {
			continue
		}
		sl.doneCum++
		if tierSLO(d.c.SLO, d.c.TierSLOs, m.Priority).Met(m) {
			sl.metCum++
		}
	}
	return sl.metCum, sl.doneCum
}

// econReport derives the economics ledger from the fleet's lifetimes and
// the merged metrics.
func econReport(c Config, fleet []*replica, merged *Result, peak int) EconReport {
	e := EconReport{GPUHourPrice: GPUHourPrice, PeakReplicas: peak}
	gpus := float64(c.Env.TotalGPUs())
	// The run spans time zero, when the initial replicas boot, to the
	// last retirement.
	var lifeNs float64
	var lastRet sim.Time
	for _, sl := range fleet {
		lifeNs += float64(sl.retiredAt - sl.provisionedAt)
		lastRet = max(lastRet, sl.retiredAt)
	}
	e.GPUHours = lifeNs * gpus / 3.6e12
	e.CostUSD = e.GPUHours * GPUHourPrice
	if lastRet > 0 {
		e.MeanReplicas = lifeNs / float64(lastRet)
	}
	// Good tokens: streamed tier counters under MetricsStream, a row scan
	// under the configured per-tier SLOs otherwise.
	if merged.Stream != nil {
		for _, t := range merged.Stream.Tiers {
			e.GoodTokens += t.GoodTokens
		}
	} else {
		for _, m := range merged.PerRequest {
			if !m.Rejected && tierSLO(c.SLO, c.TierSLOs, m.Priority).Met(m) {
				e.GoodTokens += int64(m.OutputLen)
			}
		}
	}
	if e.GPUHours > 0 {
		e.GoodputPerGPUHour = float64(e.GoodTokens) / e.GPUHours
	}
	if e.GoodTokens > 0 {
		e.CostPerMTok = e.CostUSD / (float64(e.GoodTokens) / 1e6)
	}
	return e
}
