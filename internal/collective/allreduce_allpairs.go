package collective

import (
	"cmp"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce1PA is the one-phase all-pairs AllReduce (paper §6.1): every GPU
// concurrently broadcasts all its local data to all peers with the LL
// protocol, and every GPU reduces all N contributions locally. Redundant
// traffic and reduction, but a single round of relaxed synchronization —
// best for very small single-node messages.
type AllReduce1PA struct {
	// TB overrides the thread-block count (0 = auto).
	TB int
}

// Name implements Algorithm.
func (a *AllReduce1PA) Name() string { return "mscclpp-1PA-LL" }

// Prepare implements Algorithm.
func (a *AllReduce1PA) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	// Per-rank packet scratch: one slot of `size` bytes per source rank.
	scratch := c.alloc("1pa.scratch", size*int64(n))
	m := newMesh(c, ranks, in, scratch)
	nTB := cmp.Or(a.TB, threadBlocks(size/(8<<10)+1, 1, 4))
	// flag is the current invocation's packet flag; every invocation advances it.
	var flag uint64
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		// Broadcast all of my input to every peer; reduce all of theirs.
		llAllPairs(k, m, r, scratch, region{in[r], 0, 0}, region{out[r], 0, 0}, size, flag, true)
	})
	return NewExec(a.Name(), func() { flag++; launch.Start() }), nil
}

// AllReduce1PAHB is the one-phase all-pairs AllReduce with HB-protocol
// signal/wait synchronization instead of LL packets. This is the structure
// of vLLM's and TensorRT-LLM's hand-written custom AllReduce kernels
// (registered peer buffers, one bulk exchange, flag barrier), used in the
// paper's §7.3 custom-kernel comparison: it pays a fence + semaphore
// round-trip that the LL variant avoids.
type AllReduce1PAHB struct{}

// Name implements Algorithm.
func (a *AllReduce1PAHB) Name() string { return "custom-1PA-HB (vLLM-like)" }

// Prepare implements Algorithm.
func (a *AllReduce1PAHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	scratch := c.alloc("1pahb.scratch", size*int64(n))
	m := newMesh(c, ranks, in, scratch)
	nTB := threadBlocks(size/(8<<10)+1, 1, 4)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		for _, p := range m.peers[r] {
			m.at(r, p).Put(k, int64(r)*size, 0, size, k.Block, k.NumBlocks)
		}
		k.GridBarrier()
		m.sync(k, r)
		k.CopyShard(out[r], 0, in[r], 0, size, k.Block, k.NumBlocks)
		for _, p := range m.peers[r] {
			k.ReduceShard(out[r], 0, scratch[r], int64(p)*size, size, k.Block, k.NumBlocks)
		}
	})
	return NewExec(a.Name(), launch.Start), nil
}

// AllReduce2PALL is the two-phase all-pairs AllReduce with the LL protocol
// (paper §6.2): phase one ReduceScatters (each rank collects and reduces its
// 1/N slice), phase two AllGathers the reduced slices, both in the all-pairs
// pattern with packet flags instead of semaphores.
type AllReduce2PALL struct{}

// Name implements Algorithm.
func (a *AllReduce2PALL) Name() string { return "mscclpp-2PA-LL" }

// Prepare implements Algorithm.
func (a *AllReduce2PALL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	slice := size / int64(n)
	// Phase-1 scratch: slot per source rank holding my slice's partial.
	// Phase-2 scratch: slot per source rank holding its reduced slice.
	scr1 := c.alloc("2pall.scr1", slice*int64(n))
	scr2 := c.alloc("2pall.scr2", slice*int64(n))
	m1 := newMesh(c, ranks, in, scr1)
	m2 := newMesh(c, ranks, out, scr2)
	nTB := threadBlocks(size/(64<<10)+1, 1, 8)
	// iter counts invocations; the kernel derives its packet flags from it.
	var iter uint64
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		flag1, flag2 := 2*iter, 2*iter+1
		mySlice := region{out[r], int64(r) * slice, 0}
		// Phase 1: scatter slice p of my input to p, reduce my slice.
		llAllPairs(k, m1, r, scr1, region{in[r], 0, slice}, mySlice, slice, flag1, true)
		// Phase 2: broadcast my reduced slice, gather everyone's.
		llAllPairs(k, m2, r, scr2, mySlice, region{out[r], 0, slice}, slice, flag2, false)
	})
	return NewExec(a.Name(), func() { iter++; launch.Start() }), nil
}

// AllReduce2PAHB is the two-phase all-pairs AllReduce with the HB protocol:
// phase one has each rank's thread groups read-reduce its slice from all
// peers' inputs concurrently (no per-step synchronization — the MSCCL++
// optimization existing libraries cannot express); phase two pushes the
// reduced slice into every peer's output with put+signal.
type AllReduce2PAHB struct {
	// TB overrides the thread-block count (0 = auto).
	TB int
}

// Name implements Algorithm.
func (a *AllReduce2PAHB) Name() string { return "mscclpp-2PA-HB" }

// Prepare implements Algorithm.
func (a *AllReduce2PAHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	slice := size / int64(n)
	m := newMesh(c, ranks, in, in)
	nTB := cmp.Or(a.TB, threadBlocks(size/(512<<10), 4, 24))
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		mySlice := int64(r) * slice
		// Phase 1: pull-reduce my slice from all peers (inputs are
		// immutable during the collective, so no sync is needed).
		k.CopyShard(out[r], mySlice, in[r], mySlice, slice, k.Block, k.NumBlocks)
		for _, p := range m.peers[r] {
			m.at(r, p).ReduceBuf(k, out[r], mySlice, in[p], mySlice,
				slice, k.Block, k.NumBlocks)
		}
		k.GridBarrier()
		// Phase 2: push my reduced slice into every peer's output.
		for _, p := range m.peers[r] {
			m.at(r, p).PutBuf(k, out[p], mySlice, out[r], mySlice,
				slice, k.Block, k.NumBlocks)
		}
		k.GridBarrier()
		m.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}
