// Package fabric models the cluster interconnect: per-GPU NVLink/xGMI ports,
// per-pair mesh links, NVSwitch reduction/multicast pipelines, DMA engines,
// and per-GPU RDMA NICs.
//
// All transfer functions are pure scheduling: they reserve the resources a
// transfer occupies and return its completion time. They never block and
// never move data; the channel layer decides whether to wait and performs
// the actual copy at completion time.
package fabric

import (
	"fmt"

	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// Fabric owns the interconnect resources of one simulated cluster.
type Fabric struct {
	Env   *topology.Env
	Model *timing.Model

	// Intra-node switch fabric (NVSwitch): per-GPU egress and ingress ports.
	egress  []*sim.Resource
	ingress []*sim.Resource
	// Intra-node mesh fabric (xGMI): per directed pair links, indexed
	// [src*G+dst] within a node; nil when the env uses a switch.
	mesh []*sim.Resource
	// Switch-mapped I/O pipelines (multimem), one per GPU port into the
	// switch; nil when unsupported.
	switchPipe []*sim.Resource
	// DMA copy engines, one per GPU (cudaMemcpy path of PortChannel).
	dma []*sim.Resource
	// RDMA NICs, one per GPU, split into send and receive queues.
	nicTx []*sim.Resource
	nicRx []*sim.Resource
}

// New builds the interconnect for env.
func New(env *topology.Env, model *timing.Model) *Fabric {
	n := env.TotalGPUs()
	f := &Fabric{Env: env, Model: model}
	name := func(kind string, i int) string { return fmt.Sprintf("%s[%d]", kind, i) }
	for i := 0; i < n; i++ {
		f.egress = append(f.egress, sim.NewResource(name("egress", i)))
		f.ingress = append(f.ingress, sim.NewResource(name("ingress", i)))
		f.dma = append(f.dma, sim.NewResource(name("dma", i)))
		f.nicTx = append(f.nicTx, sim.NewResource(name("nicTx", i)))
		f.nicRx = append(f.nicRx, sim.NewResource(name("nicRx", i)))
		if env.HasMulticast {
			f.switchPipe = append(f.switchPipe, sim.NewResource(name("switch", i)))
		}
	}
	if env.IntraMesh {
		g := env.GPUsPerNode
		f.mesh = make([]*sim.Resource, env.Nodes*g*g)
		for node := 0; node < env.Nodes; node++ {
			for s := 0; s < g; s++ {
				for d := 0; d < g; d++ {
					if s == d {
						continue
					}
					idx := node*g*g + s*g + d
					f.mesh[idx] = sim.NewResource(fmt.Sprintf("xgmi[%d:%d->%d]", node, s, d))
				}
			}
		}
	}
	return f
}

func (f *Fabric) node(rank int) int  { return rank / f.Env.GPUsPerNode }
func (f *Fabric) local(rank int) int { return rank % f.Env.GPUsPerNode }

// SameNode reports whether two ranks share a node.
func (f *Fabric) SameNode(a, b int) bool { return f.node(a) == f.node(b) }

// intraPath appends the resources a single intra-node flow src->dst
// occupies to rs and returns them with the raw bandwidth of that path.
// Callers pass a slice of a local array, so a booking allocates nothing.
func (f *Fabric) intraPath(rs []*sim.Resource, src, dst int) ([]*sim.Resource, float64) {
	if f.Env.IntraMesh {
		g := f.Env.GPUsPerNode
		idx := f.node(src)*g*g + f.local(src)*g + f.local(dst)
		return append(rs, f.mesh[idx]), f.Env.PeerBW()
	}
	return append(rs, f.egress[src], f.ingress[dst]), f.Env.IntraBW
}

// P2P schedules a thread-copy transfer of size bytes from src to dst (same
// node), produced at streamBW by the copying thread blocks. Returns the time
// at which the data is fully visible at dst.
func (f *Fabric) P2P(now sim.Time, src, dst int, size int64, streamBW float64) sim.Time {
	if !f.SameNode(src, dst) {
		panic(fmt.Sprintf("fabric: P2P across nodes %d->%d", src, dst))
	}
	var path [2]*sim.Resource
	rs, linkBW := f.intraPath(path[:0], src, dst)
	wire := timing.XferTime(size, linkBW)
	start, _ := sim.ReserveJoint(now, wire, rs...)
	dur := timing.XferTime(size, streamBW)
	if dur < wire {
		dur = wire
	}
	return start + dur + f.Env.IntraLat
}

// DMA schedules a DMA-engine (cudaMemcpy-style) transfer src->dst within a
// node. The engine runs at the full DMA rate independent of SM occupancy.
func (f *Fabric) DMA(now sim.Time, src, dst int, size int64) sim.Time {
	if !f.SameNode(src, dst) {
		panic(fmt.Sprintf("fabric: DMA across nodes %d->%d", src, dst))
	}
	path := [3]*sim.Resource{f.dma[src]}
	rs, linkBW := f.intraPath(path[:1], src, dst)
	bw := f.Env.DMABW
	if bw > linkBW {
		bw = linkBW
	}
	wire := timing.XferTime(size, bw)
	_, end := sim.ReserveJoint(now, wire, rs...)
	return end + f.Env.IntraLat + f.Env.DMALat
}

// RDMA schedules an RDMA write src->dst across nodes via the per-GPU NICs.
func (f *Fabric) RDMA(now sim.Time, src, dst int, size int64) sim.Time {
	wire := timing.XferTime(size, f.Env.IBBW)
	_, end := sim.ReserveJoint(now, wire, f.nicTx[src], f.nicRx[dst])
	return end + f.Env.IBLat
}

// SignalLatency returns the one-way latency of an atomic semaphore update
// between two ranks (p2p store intra-node, RDMA atomic inter-node).
func (f *Fabric) SignalLatency(src, dst int) sim.Duration {
	if f.SameNode(src, dst) {
		return f.Env.IntraLat
	}
	return f.Env.IBLat
}

// nodeEgress / nodeIngress return the port resources of every GPU in rank's
// node (the multimem group spans the node's NVSwitch).
func (f *Fabric) nodeEgress(rank int) []*sim.Resource {
	g := f.Env.GPUsPerNode
	base := f.node(rank) * g
	return f.egress[base : base+g]
}

func (f *Fabric) nodeIngress(rank int) []*sim.Resource {
	g := f.Env.GPUsPerNode
	base := f.node(rank) * g
	return f.ingress[base : base+g]
}

// switchPath is the room a local resource array needs for one switch
// booking: a switch pipeline, one port and every port of an 8-GPU node. A
// larger node spills the list to the heap.
type switchPath [2 + 8]*sim.Resource

// switchTimes returns the wire occupancy (SHARP pipeline rate) and the
// completion extension for slower issuing streams.
func (f *Fabric) switchTimes(size int64, streamBW float64) (wire, dur sim.Duration) {
	wire = timing.XferTime(size, f.Env.SwitchBW)
	dur = wire
	if s := timing.XferTime(size, streamBW); s > dur {
		dur = s
	}
	return wire, dur
}

// SwitchReduce schedules an in-switch reduction read (multimem.ld_reduce):
// rank pulls size bytes that the switch aggregates across the multimem
// group. The switch reads size bytes from EVERY member GPU's memory, so the
// operation occupies all member egress ports plus the requester's ingress
// and SHARP pipeline; streamBW is the issuing thread blocks' instruction
// rate.
func (f *Fabric) SwitchReduce(now sim.Time, rank int, size int64, streamBW float64) sim.Time {
	if f.switchPipe == nil {
		panic("fabric: switch-mapped I/O unsupported on " + f.Env.Name)
	}
	wire, dur := f.switchTimes(size, streamBW)
	var path switchPath
	rs := append(append(path[:0], f.switchPipe[rank], f.ingress[rank]), f.nodeEgress(rank)...)
	start, _ := sim.ReserveJoint(now, wire, rs...)
	return start + dur + f.Env.SwitchLat
}

// SwitchBroadcast schedules an in-switch multicast store (multimem.st): rank
// sends size bytes once; the switch fans them out to every member GPU's
// memory, occupying the sender's egress plus all member ingress ports.
func (f *Fabric) SwitchBroadcast(now sim.Time, rank int, size int64, streamBW float64) sim.Time {
	if f.switchPipe == nil {
		panic("fabric: switch-mapped I/O unsupported on " + f.Env.Name)
	}
	wire, dur := f.switchTimes(size, streamBW)
	var path switchPath
	rs := append(append(path[:0], f.switchPipe[rank], f.egress[rank]), f.nodeIngress(rank)...)
	start, _ := sim.ReserveJoint(now, wire, rs...)
	return start + dur + f.Env.SwitchLat
}

// SwitchReduceBroadcast schedules the fused ld_reduce + multimem.st loop
// used by switch-based AllReduce: a single streaming pass that reduces
// through the switch and multicasts the result back out. The read side
// (all member egresses) and the write side (all member ingresses) pipeline,
// so completion is the max of the two occupancies.
func (f *Fabric) SwitchReduceBroadcast(now sim.Time, rank int, size int64, streamBW float64) sim.Time {
	if f.switchPipe == nil {
		panic("fabric: switch-mapped I/O unsupported on " + f.Env.Name)
	}
	wire, dur := f.switchTimes(size, streamBW)
	var path switchPath
	rdRes := append(append(path[:0], f.switchPipe[rank]), f.nodeEgress(rank)...)
	rdStart, _ := sim.ReserveJoint(now, wire, rdRes...)
	wrStart, _ := sim.ReserveJoint(now, wire, f.nodeIngress(rank)...)
	start := rdStart
	if wrStart > start {
		start = wrStart
	}
	return start + dur + f.Env.SwitchLat
}

// HasSwitch reports whether switch-mapped I/O is available.
func (f *Fabric) HasSwitch() bool { return f.switchPipe != nil }

// Counters snapshots every fabric resource's introspection counters,
// grouped by interconnect role in a fixed order (egress, ingress, xgmi,
// switch, dma, nicTx, nicRx; absent roles are omitted). This is the
// fabric's counter registration for per-scenario "where did the time go"
// reports: utilization, queue delay and max depth per port class.
func (f *Fabric) Counters() []sim.CounterGroup {
	groups := []sim.CounterGroup{
		sim.Group("egress", f.egress...),
		sim.Group("ingress", f.ingress...),
		sim.Group("xgmi", f.mesh...),
		sim.Group("switch", f.switchPipe...),
		sim.Group("dma", f.dma...),
		sim.Group("nicTx", f.nicTx...),
		sim.Group("nicRx", f.nicRx...),
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g.Stats) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// Reset returns every resource to idle (between benchmark repetitions run on
// fresh engines).
func (f *Fabric) Reset() {
	for _, rs := range [][]*sim.Resource{f.egress, f.ingress, f.dma, f.nicTx, f.nicRx, f.switchPipe, f.mesh} {
		for _, r := range rs {
			if r != nil {
				r.Reset()
			}
		}
	}
}
