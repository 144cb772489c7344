// Package machine assembles the simulated cluster: a DES engine, the
// interconnect fabric, and GPU devices that can launch kernels whose thread
// blocks execute as simulated processes. A kernel is prepared once (Kernel)
// and launched for every invocation (Launch.Start).
package machine

import (
	"fmt"
	"strconv"
	"sync"

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

	syncData func()  // SyncData, the Sync of every buffer Alloc makes
	body     *Kernel // the block whose body resumed last (see SyncData)
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
	m.syncData = m.SyncData
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
// materialization limit. The buffer's Sync is the machine's SyncData.
func (m *Machine) Alloc(rank int, name string, size int64) *mem.Buffer {
	if rank < 0 || rank >= len(m.GPUs) {
		panic(fmt.Sprintf("machine: Alloc on invalid rank %d", rank))
	}
	var b *mem.Buffer
	if size <= m.MaterializeLimit {
		b = mem.NewBuffer(rank, name, size)
	} else {
		b = mem.NewVirtualBuffer(rank, name, size)
	}
	b.Sync = m.syncData
	return b
}

// SyncData runs before a data operation touches one of the machine's
// buffers. Called from a thread block's body, it waits for the block's
// queued calls (Kernel.Drain), so the body reads and writes the data where
// the block, woken from its last call, would have. Elsewhere (a landing,
// a proxy handler, code outside Run) it does nothing. A block's body runs
// from its start and from each return of Kernel.Park, which both record
// the block as the machine's body; the engine's running process tells
// whether that body is running now.
func (m *Machine) SyncData() {
	if k := m.body; k != nil && m.Engine.Running() == k.P {
		k.Drain()
	}
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
			k.P = m.Engine.NewProc(prefix+strconv.Itoa(b), func(*sim.Proc) {
				m.body = k
				body(k, g.Rank)
				k.Drain()
				k.release()
			})
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
// A block queues its calls. A call made while the block has none in
// progress runs its call-time part at once, as the block would have, and
// returns; a later call is appended to the block's queue and returns.
// Where the block would have woken from the call, the Kernel fires instead,
// as an Action scheduled at the same time and the same point of the event
// order (or queued on the same semaphore): it runs the finished call's
// after-wake part and then the next call's call-time part, which is all
// the woken block would have run before its next call, since a body
// computes nothing between its calls that the simulation changes. So
// virtual time, the event order and the event count are those of a block
// that woke once per call, while the block itself wakes twice per launch:
// when it starts, and when its queue drains after its body has returned.
//
// Three things wait for the queue to drain first, so the body sees what a
// block woken from its last call would have: Now, since the clock is only
// right once the calls before it are done; the body's own reads and writes
// of buffer data (SyncData), since a call's data lands as it ends; and
// Drain itself, which a body that blocks its process itself
// (twosided.Exchange parks it) calls first.
type Kernel struct {
	P         *sim.Proc
	GPU       *GPU
	Block     int
	NumBlocks int
	grid      *gridState

	head, tail *Call // the queued calls; head is in progress
	spare      *Call // this launch's finished records, reused by its later calls
}

// Call is one Primitive API call queued on a thread block: its operands,
// and the steps its Kernel runs for it. A call takes its record from
// Kernel.Call, fills the operands it uses and hands it to Submit or Issue.
// Steps are top-level functions and the operands pointers and integers, so
// a call boxes nothing; the records come from one process-wide free list.
// A call whose data movement the operands cannot name (a fused reduce-put,
// a switch operation) stages a landing from the machine's pool instead.
type Call struct {
	Obj            any          // the channel, proxy or semaphore the call works on (a pointer)
	Dst, Src       *mem.Buffer  // the buffers the call's data moves into and out of
	DstOff, SrcOff int64        // where in Dst and Src (or in a proxy request's buffers)
	N              int64        // the bytes the call moves or books
	D              sim.Duration // the time the call sleeps, or waits on top of a semaphore
	Arg            uint64       // a wait target, an LL flag or a proxy request's kind
	land           *landing     // the staged landing (Stage), or nil

	start func(k *Kernel, c *Call) // the call-time part
	step  func(k *Kernel, c *Call) // what the Kernel runs when it next fires
	after func(k *Kernel, c *Call) // the after-wake part, or nil
	next  *Call
}

// calls is the free list of Call records, shared by every machine in the
// process like sim's coroutine pool: a block returns its records when its
// queue drains, so the list holds as many records as were ever queued at
// once, not a set per prepared kernel.
var calls struct {
	sync.Mutex
	free *Call
}

// Call returns an empty record for a call the block is about to Submit.
func (k *Kernel) Call() *Call {
	c := k.spare
	if c != nil {
		k.spare, c.next = c.next, nil
		return c
	}
	calls.Lock()
	c = calls.free
	if c != nil {
		calls.free, c.next = c.next, nil
	}
	calls.Unlock()
	if c == nil {
		c = new(Call)
	}
	return c
}

// release returns the launch's records to the free list once the block's
// body has returned and its queue has drained.
func (k *Kernel) release() {
	first := k.spare
	if first == nil {
		return
	}
	last := first
	for last.next != nil {
		last = last.next
	}
	k.spare = nil
	calls.Lock()
	last.next, calls.free = calls.free, first
	calls.Unlock()
}

// Submit queues c, whose call-time part is start and whose after-wake part
// is after (nil for none): start runs now if the block has no call in
// progress, else when the call before c has finished. start must end by
// scheduling the Kernel: Then, WakeAt or WakeAfter. Since start may run in
// the block's own process, it books and schedules only; data moves in a
// later step or in the after-wake part.
func (k *Kernel) Submit(c *Call, start, after func(k *Kernel, c *Call)) {
	c.start, c.after = start, after
	if k.tail != nil {
		k.tail.next = c
		k.tail = c
		return
	}
	k.head, k.tail = c, c
	start(k, c)
}

// Issue queues c as a call that pays the call overhead (InstrOverhead) and
// then runs step, its booking step, where the block would have woken from
// that sleep.
func (k *Kernel) Issue(c *Call, step, after func(k *Kernel, c *Call)) {
	c.step = step
	k.Submit(c, issue, after)
}

// issue is the call-time part of an Issue call.
func issue(k *Kernel, c *Call) { k.Then(k.P.Now()+k.Model().InstrOverhead, c.step) }

// kernelAction is a Kernel viewed as the Action of its calls' steps, so
// scheduling a step stores the Kernel's own pointer and allocates nothing.
type kernelAction Kernel

// Fire runs the current call's next step.
func (a *kernelAction) Fire() {
	k := (*Kernel)(a)
	k.head.step(k, k.head)
}

// Then schedules step, the current call's next step, at t: where the block,
// sleeping until t, would have woken. It is for steps, which run in event
// context and read the clock with P.Now, not Now.
func (k *Kernel) Then(t sim.Time, step func(k *Kernel, c *Call)) {
	k.head.step = step
	k.P.Engine().Do(t, (*kernelAction)(k))
}

// WakeAt ends the current call at t, where the block would have woken from
// it: its after-wake part runs then, and the next call starts.
func (k *Kernel) WakeAt(t sim.Time) { k.Then(t, finish) }

// WakeAfter ends the current call d nanoseconds after s reaches target,
// where a block that waited in WaitGE and then slept d would have woken:
// from now if s already has, else from the recheck that satisfies it, with
// s as the block's wait reason in a deadlock report. It keeps d in the
// call's D.
func (k *Kernel) WakeAfter(s *sim.Semaphore, target uint64, d sim.Duration) {
	c := k.head
	c.D, c.step = d, wakeAfterWait
	if !s.Await((*kernelAction)(k), k.P, target) {
		k.WakeAt(k.P.Now() + d)
	}
}

// wakeAfterWait is the step a satisfied WakeAfter wait runs.
func wakeAfterWait(k *Kernel, c *Call) { k.WakeAt(k.P.Now() + c.D) }

// finish runs where the block would have woken from its current call: the
// call's after-wake part, then the next call's call-time part; once the
// queue is empty, it resumes the block, which waits in Drain.
func finish(k *Kernel, c *Call) {
	if c.after != nil {
		c.after(k, c)
	}
	next := c.next
	*c = Call{next: k.spare}
	k.spare = c
	k.head = next
	if next != nil {
		next.start(k, next)
		return
	}
	k.tail = nil
	k.P.Fire()
}

// Drain blocks the block until its queued calls have finished: the block
// wakes where it would have woken from the last of them. A call that
// blocks the block itself (twosided.Exchange) drains first.
func (k *Kernel) Drain() {
	if k.head != nil {
		k.Park("queued calls")
	}
}

// Park blocks the block's process until an Action working for it resumes
// it with P.Fire: the one way a block's body blocks, for Drain and for a
// call that does the block's waiting itself (twosided.Exchange), after
// Drain. reason is the block's wait reason in a deadlock report. A Kernel
// made outside a launch, with no GPU, has no machine to record it.
func (k *Kernel) Park(reason string) {
	k.P.Park(reason)
	if k.GPU != nil {
		k.GPU.m.body = k
	}
}

// Await queues a wait until s reaches target, followed by d of wake-up
// cost: the wait of a channel's Wait, AwaitPackets or WaitFlush and the
// cost that follows it.
func (k *Kernel) Await(s *sim.Semaphore, target uint64, d sim.Duration) {
	c := k.Call()
	c.Obj, c.Arg, c.D = s, target, d
	k.Submit(c, await, nil)
}

// await is the call-time part of Await.
func await(k *Kernel, c *Call) { k.WakeAfter(c.Obj.(*sim.Semaphore), c.Arg, c.D) }

// Stage takes a landing record for l from the machine's pool and keeps it
// on c until a step lands it with LandStaged: for a call whose data
// movement its operands cannot name.
func (k *Kernel) Stage(c *Call, l Landing) { c.land = k.GPU.m.takeLanding(l) }

// LandStaged schedules c's staged landing to apply at t, as Machine.Land
// at this point would have.
func (k *Kernel) LandStaged(c *Call, t sim.Time) {
	r := c.land
	c.land = nil
	k.P.Engine().Do(t, r)
}

// Machine returns the owning machine.
func (k *Kernel) Machine() *Machine { return k.GPU.m }

// Model returns the cost model.
func (k *Kernel) Model() *timing.Model { return k.GPU.m.Model }

// Fabric returns the interconnect.
func (k *Kernel) Fabric() *fabric.Fabric { return k.GPU.m.Fabric }

// Now returns current virtual time once the block's queued calls have
// finished: the time the block would have read after them.
func (k *Kernel) Now() sim.Time {
	k.Drain()
	return k.P.Now()
}

// Elapse charges d nanoseconds of in-kernel compute time.
func (k *Kernel) Elapse(d sim.Duration) {
	c := k.Call()
	c.D = d
	k.Submit(c, Sleep, nil)
}

// Sleep is a step that ends the current call D nanoseconds from now: the
// call-time part of a call that sleeps, or its last step.
func Sleep(k *Kernel, c *Call) { k.WakeAt(k.P.Now() + c.D) }

// TBSync models __syncthreads() within the thread block.
func (k *Kernel) TBSync() { k.Elapse(k.Model().TBSyncCost) }

// GridBarrier synchronizes all thread blocks of this kernel (device-wide
// barrier via arrive/wait counters).
func (k *Kernel) GridBarrier() { k.Submit(k.Call(), gridBarrier, nil) }

// gridBarrier is GridBarrier's call-time part. The last block to arrive
// pays the barrier cost and releases the generation when it wakes; the
// others wait for the release, which fires them inline in the recheck that
// sees it. A generation's threshold is always ahead of the count, so the
// wait always queues.
func gridBarrier(k *Kernel, c *Call) {
	g := k.grid
	if g.sem == nil {
		g.sem = sim.NewSemaphore(k.P.Engine(), "grid barrier")
	}
	next := g.sem.Value() + 1
	g.count++
	if g.count == g.size {
		g.count = 0
		c.after = gridRelease
		k.WakeAt(k.P.Now() + k.Model().DeviceBarrierCost)
		return
	}
	c.step = finish
	g.sem.Await((*kernelAction)(k), k.P, next)
}

// gridRelease releases the waiters of the barrier generation.
func gridRelease(k *Kernel, _ *Call) { k.grid.sem.Add(1) }

// LocalReduce charges the cost of an in-kernel local reduction of size bytes
// performed cooperatively by nTB thread blocks (caller is one of them; all
// participating blocks should call with the same arguments).
func (k *Kernel) LocalReduce(size int64, nTB int) { k.Elapse(k.localReduceTime(size, nTB)) }

func (k *Kernel) localReduceTime(size int64, nTB int) sim.Duration {
	return timing.XferTime(size, k.Model().LocalReduceBW(nTB)) + k.Model().InstrOverhead
}

// LocalCopy charges the cost of an in-kernel local memory copy by nTB blocks.
func (k *Kernel) LocalCopy(size int64, nTB int) { k.Elapse(k.localCopyTime(size, nTB)) }

func (k *Kernel) localCopyTime(size int64, nTB int) sim.Duration {
	bw := float64(nTB) * k.Model().LocalCopyBWPerTB
	if hbm := k.Model().Env.HBMBW / 2; bw > hbm {
		bw = hbm
	}
	return timing.XferTime(size, bw) + k.Model().InstrOverhead
}

// CopyShard is block tb's share of a local size-byte copy split across nTB
// blocks: it charges one block's copy of its Shard and moves that range
// from src+srcOff to dst+dstOff when the charge has elapsed. An empty
// shard costs nothing.
func (k *Kernel) CopyShard(dst *mem.Buffer, dstOff int64, src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	off, n := Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	c := k.Call()
	c.Dst, c.DstOff, c.Src, c.SrcOff, c.N = dst, dstOff+off, src, srcOff+off, n
	c.D = k.localCopyTime(n, 1)
	k.Submit(c, Sleep, applyCopy)
}

// ReduceShard is block tb's share of a local size-byte accumulate
// (dst += src) split across nTB blocks, charged and applied like CopyShard.
func (k *Kernel) ReduceShard(dst *mem.Buffer, dstOff int64, src *mem.Buffer, srcOff, size int64, tb, nTB int) {
	off, n := Shard(size, tb, nTB)
	if n == 0 {
		return
	}
	c := k.Call()
	c.Dst, c.DstOff, c.Src, c.SrcOff, c.N = dst, dstOff+off, src, srcOff+off, n
	c.D = k.localReduceTime(n, 1)
	k.Submit(c, Sleep, applyAccumulate)
}

// applyCopy is the after-wake part of a local copy: it moves the call's
// data as the block would have on waking.
func applyCopy(_ *Kernel, c *Call) { c.Src.CopyTo(c.Dst, c.DstOff, c.SrcOff, c.N) }

// applyAccumulate is applyCopy for a local accumulate.
func applyAccumulate(_ *Kernel, c *Call) { c.Dst.AccumulateFrom(c.Src, c.DstOff, c.SrcOff, c.N) }

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
