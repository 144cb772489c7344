// Package machine assembles the simulated cluster: a DES engine, the
// interconnect fabric, and GPU devices that can launch kernels whose thread
// blocks execute as simulated processes. A kernel is prepared once (Kernel)
// and launched for every invocation (Launch.Start).
package machine

import (
	"fmt"
	"strconv"

	"mscclpp/internal/fabric"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/timing"
	"mscclpp/internal/topology"
)

// DefaultMaterializeLimit is the buffer size up to which allocations carry
// real data (larger buffers are virtual: timing only). 8 MiB keeps full
// numerical verification for the latency-regime experiments while letting
// 1 GB sweeps run fast.
const DefaultMaterializeLimit = 8 << 20

// Machine is one simulated cluster instance.
type Machine struct {
	Engine *sim.Engine
	Env    *topology.Env
	Model  *timing.Model
	Fabric *fabric.Fabric
	GPUs   []*GPU

	// MaterializeLimit controls whether Alloc returns materialized or
	// virtual buffers. Set to a huge value to force full materialization in
	// correctness tests.
	MaterializeLimit int64

	freeLandings *landing // idle Land records (see Land)
}

// New builds a machine for env with the default cost model.
func New(env *topology.Env) *Machine {
	if err := env.Validate(); err != nil {
		panic(err)
	}
	model := timing.Default(env)
	m := &Machine{
		Engine:           sim.NewEngine(),
		Env:              env,
		Model:            model,
		Fabric:           fabric.New(env, model),
		MaterializeLimit: DefaultMaterializeLimit,
	}
	for r := 0; r < env.TotalGPUs(); r++ {
		m.GPUs = append(m.GPUs, &GPU{
			Rank:  r,
			Node:  r / env.GPUsPerNode,
			Local: r % env.GPUsPerNode,
			m:     m,
		})
	}
	return m
}

// Alloc allocates a buffer on rank, materialized iff size is within the
// materialization limit.
func (m *Machine) Alloc(rank int, name string, size int64) *mem.Buffer {
	if rank < 0 || rank >= len(m.GPUs) {
		panic(fmt.Sprintf("machine: Alloc on invalid rank %d", rank))
	}
	if size <= m.MaterializeLimit {
		return mem.NewBuffer(rank, name, size)
	}
	return mem.NewVirtualBuffer(rank, name, size)
}

// Run drains the event queue, returning any deadlock error.
func (m *Machine) Run() error { return m.Engine.Run() }

// Now returns current virtual time.
func (m *Machine) Now() sim.Time { return m.Engine.Now() }

// Counters snapshots the cluster's resource introspection counters. All of
// a machine's contended resources live in its fabric (GPU thread blocks
// are processes, not occupancy resources), so this is the fabric's
// registration surfaced at the cluster level.
func (m *Machine) Counters() []sim.CounterGroup { return m.Fabric.Counters() }

// GPU is one simulated device.
type GPU struct {
	Rank  int // global rank
	Node  int
	Local int // rank within node
	m     *Machine
}

// Machine returns the owning machine.
func (g *GPU) Machine() *Machine { return g.m }

// Launch is a prepared kernel: its thread blocks on one GPU or on every
// GPU, built once — each block's name, Kernel, process and body — and run
// again by every Start. A collective builds its launch when it is prepared
// and starts it once per invocation, so a relaunch allocates nothing.
type Launch struct {
	m    *Machine
	gpus []gpuLaunch
}

// gpuLaunch is one GPU's share of a launch and the Action of its launch
// event, which starts the GPU's blocks in block order.
type gpuLaunch struct {
	blocks []*sim.Proc
	grid   gridState
}

func (g *gpuLaunch) Fire() {
	for _, p := range g.blocks {
		p.Start()
	}
}

// Kernel prepares the kernel name with nTB thread blocks on every rank,
// ranks 0..n-1 in order; each block runs body with its GPU's rank. This is
// the one per-rank launch loop: a collective is its body, not the loop.
func (m *Machine) Kernel(name string, nTB int, body func(k *Kernel, rank int)) *Launch {
	return m.prepare(name, m.GPUs, nTB, body)
}

// Kernel prepares a kernel with nblocks thread blocks on the device; each
// block runs body.
func (g *GPU) Kernel(name string, nblocks int, body func(k *Kernel)) *Launch {
	return g.m.prepare(name, []*GPU{g}, nblocks, func(k *Kernel, _ int) { body(k) })
}

// prepare builds the blocks of kernel name on gpus: block b of GPU g is
// the process name/gpu<g>/tb<b>.
func (m *Machine) prepare(name string, gpus []*GPU, nTB int, body func(k *Kernel, rank int)) *Launch {
	if nTB < 1 {
		panic(fmt.Sprintf("machine: kernel %s launched with %d blocks", name, nTB))
	}
	l := &Launch{m: m, gpus: make([]gpuLaunch, len(gpus))}
	for i, g := range gpus {
		gl := &l.gpus[i]
		gl.grid.size = nTB
		gl.blocks = make([]*sim.Proc, nTB)
		prefix := name + "/gpu" + strconv.Itoa(g.Rank) + "/tb"
		for b := range gl.blocks {
			k := &Kernel{GPU: g, Block: b, NumBlocks: nTB, grid: &gl.grid}
			k.P = m.Engine.NewProc(prefix+strconv.Itoa(b), func(*sim.Proc) { body(k, g.Rank) })
			gl.blocks[b] = k.P
		}
	}
	return l
}

// Start launches the kernel: every block runs its body again as a
// simulated process once the launch overhead elapses. There is one launch
// event per GPU, in GPU order, and it starts that GPU's blocks in block
// order. Start may be called from outside any Proc (events are scheduled at
// the engine's current time). It panics, scheduling nothing, if a block of
// the previous launch is still live, as after a deadlocked Run.
func (l *Launch) Start() {
	for i := range l.gpus {
		for _, p := range l.gpus[i].blocks {
			if p.Live() {
				panic("machine: kernel started while its block " + p.Name + " is still live")
			}
		}
	}
	e := l.m.Engine
	t := e.Now() + l.m.Model.KernelLaunch
	for i := range l.gpus {
		e.Do(t, &l.gpus[i])
	}
}

// gridState implements a reusable grid-wide barrier. sem counts completed
// generations, so a waiter holds its release threshold inline; it is made
// at the first barrier, since many kernels never cross one. The count
// returns to 0 after every generation and sem only grows, so a relaunch
// reuses both as they are.
type gridState struct {
	sem   *sim.Semaphore
	size  int
	count int
}

// Kernel is the execution context of one thread block: the paper's in-kernel
// Primitive API calls receive this.
//
// A call that would sleep twice, once for its issue overhead and again
// while its threads issue the transfer, costs the block one wake: Issue
// parks the block, and the call's booking step runs as an Action on the
// block's Step record where the first wake would have, does what the
// block would have done there, and schedules the block's wake where the
// second sleep would have ended (Await does the same for a semaphore wait
// and the sleep after it). Virtual time, the event order and the event
// count stay a twice-sleeping block's. Elapse, TBSync, LocalCopy,
// LocalReduce, CopyShard, ReduceShard and GridBarrier sleep or wait once
// and keep their plain sleep.
type Kernel struct {
	P         *sim.Proc
	GPU       *GPU
	Block     int
	NumBlocks int
	grid      *gridState

	// Step is the block's one step record, reused by every call: a block
	// is in at most one primitive at a time.
	Step Step
}

// Step is the state a Primitive API call's booking step works on. The
// caller sets Obj and N before Issue; the step may set Done for the block
// to read after its wake. It holds pointers and integers only, so nothing
// is boxed per call.
type Step struct {
	Obj  any      // the channel or proxy the call works on (a pointer)
	N    int64    // the call's operand: bytes to book, or a duration
	Done sim.Time // set by a step: the booked transfer's completion
	fn   func(k *Kernel)
	land *landing // staged by Stage, scheduled by LandStaged
}

// stepAction is a Kernel viewed as the Action of its step record, so
// scheduling the step stores the Kernel's own pointer and allocates nothing.
type stepAction Kernel

// Fire runs the block's current booking step in event context.
func (a *stepAction) Fire() {
	k := (*Kernel)(a)
	k.Step.fn(k)
}

// Issue parks the block and runs step, a top-level function, on the block's
// step record d nanoseconds from now, exactly where the block would have
// woken from Elapse(d). The step must end by scheduling the block's wake
// (WakeAt, WakeAfter), which Issue returns from.
func (k *Kernel) Issue(d sim.Duration, step func(k *Kernel)) {
	k.Step.fn = step
	e := k.P.Engine()
	e.Do(e.Now()+d, (*stepAction)(k))
	k.P.Park("primitive")
}

// WakeAt schedules the block's wake at t, as the block's SleepUntil(t)
// would have. It is for booking steps, which run in event context.
func (k *Kernel) WakeAt(t sim.Time) { k.P.Engine().Do(t, k.P) }

// WakeAfter schedules the block's wake d nanoseconds after s reaches
// target, where a block that waited in WaitGE and then slept d would have
// woken: from now if s already has, else from the recheck that satisfies
// it, with s as the block's wait reason in a deadlock report. It is for
// booking steps, and for the block itself just before it parks.
func (k *Kernel) WakeAfter(s *sim.Semaphore, target uint64, d sim.Duration) {
	k.Step.fn, k.Step.N = wakeAfterWait, d
	if !s.Await((*stepAction)(k), k.P, target) {
		k.WakeAt(k.Now() + d)
	}
}

// wakeAfterWait is the step a satisfied WakeAfter wait runs.
func wakeAfterWait(k *Kernel) { k.WakeAt(k.Now() + k.Step.N) }

// Await blocks the block until s reaches target and then charges d, with
// one wake: the wait of a channel's Wait, AwaitPackets or WaitFlush and
// the wake-up cost that follows it.
func (k *Kernel) Await(s *sim.Semaphore, target uint64, d sim.Duration) {
	k.WakeAfter(s, target, d)
	k.P.Park("sleep")
}

// Stage takes a landing record for l from the machine's pool and keeps it
// on the block's step record until the booking step lands it with
// LandStaged: a call that lands its data before the block wakes stages it
// when issued, so the record stays a pointer.
func (k *Kernel) Stage(l Landing) {
	k.Step.land = k.GPU.m.takeLanding(l)
}

// LandStaged schedules the staged landing to apply at t, as Machine.Land
// at this point would have.
func (k *Kernel) LandStaged(t sim.Time) {
	r := k.Step.land
	k.Step.land = nil
	k.P.Engine().Do(t, r)
}

// Machine returns the owning machine.
func (k *Kernel) Machine() *Machine { return k.GPU.m }

// Model returns the cost model.
func (k *Kernel) Model() *timing.Model { return k.GPU.m.Model }

// Fabric returns the interconnect.
func (k *Kernel) Fabric() *fabric.Fabric { return k.GPU.m.Fabric }

// Now returns current virtual time.
func (k *Kernel) Now() sim.Time { return k.P.Now() }

// Elapse charges d nanoseconds of in-kernel compute time.
func (k *Kernel) Elapse(d sim.Duration) { k.P.Sleep(d) }

// TBSync models __syncthreads() within the thread block.
func (k *Kernel) TBSync() { k.P.Sleep(k.Model().TBSyncCost) }

// GridBarrier synchronizes all thread blocks of this kernel (device-wide
// barrier via arrive/wait counters).
func (k *Kernel) GridBarrier() {
	g := k.grid
	if g.sem == nil {
		g.sem = sim.NewSemaphore(k.P.Engine(), "grid barrier")
	}
	next := g.sem.Value() + 1
	g.count++
	if g.count == g.size {
		g.count = 0
		k.P.Sleep(k.Model().DeviceBarrierCost)
		g.sem.Add(1)
		return
	}
	g.sem.WaitGE(k.P, next)
}

// LocalReduce charges the cost of an in-kernel local reduction of size bytes
// performed cooperatively by nTB thread blocks (caller is one of them; all
// participating blocks should call with the same arguments).
func (k *Kernel) LocalReduce(size int64, nTB int) {
	bw := k.Model().LocalReduceBW(nTB)
	k.P.Sleep(timing.XferTime(size, bw) + k.Model().InstrOverhead)
}

// LocalCopy charges the cost of an in-kernel local memory copy by nTB blocks.
func (k *Kernel) LocalCopy(size int64, nTB int) {
	bw := float64(nTB) * k.Model().LocalCopyBWPerTB
	if hbm := k.Model().Env.HBMBW / 2; bw > hbm {
		bw = hbm
	}
	k.P.Sleep(timing.XferTime(size, bw) + k.Model().InstrOverhead)
}

// CopyShard is block tb's share of a local size-byte copy split across nTB
// blocks: it charges one block's copy of its Shard and moves that range
// from src+srcOff to dst+dstOff. An empty shard costs nothing.
func (k *Kernel) CopyShard(dst *mem.Buffer, dstOff int64, src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	off, n := Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	k.LocalCopy(n, 1)
	src.CopyTo(dst, dstOff+off, srcOff+off, n)
}

// ReduceShard is block tb's share of a local size-byte accumulate
// (dst += src) split across nTB blocks, charged and applied like CopyShard.
func (k *Kernel) ReduceShard(dst *mem.Buffer, dstOff int64, src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	off, n := Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	k.LocalReduce(n, 1)
	dst.AccumulateFrom(src, dstOff+off, srcOff+off, n)
}

// Shard splits size bytes into nTB 4-byte-aligned shards and returns the
// half-open byte range [off, off+n) of block tb. Shards differ by at most
// one element, earlier blocks take the extra ones, and the last block also
// absorbs a non-4-byte tail, so the shards of 0..nTB-1 tile [0, size).
func Shard(size int64, tb, nTB int) (off, n int64) {
	if nTB <= 1 {
		return 0, size
	}
	el := size / 4
	base := el / int64(nTB)
	rem := el % int64(nTB)
	off = (base*int64(tb) + min(int64(tb), rem)) * 4
	n = base * 4
	if int64(tb) < rem {
		n += 4
	}
	if tb == nTB-1 {
		n += size % 4
	}
	return off, n
}
