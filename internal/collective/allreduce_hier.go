package collective

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce2PHLL is the hierarchical AllReduce for small multi-node messages
// (paper §6.4, first variant): a node-local LL ReduceScatter that splits the
// data only into the number of local GPUs, a one-phase all-pairs exchange
// across nodes over PortChannels (redundant reduction, but fewer
// synchronization steps), and a node-local LL AllGather. The local collective
// is pipelined with cross-node communication by issuing the asynchronous
// port puts as soon as each slice is ready.
type AllReduce2PHLL struct{}

// Name implements Algorithm.
func (a *AllReduce2PHLL) Name() string { return "mscclpp-2PH-LL" }

// Prepare implements Algorithm.
func (a *AllReduce2PHLL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, multiNode, in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	g, nodes := env.GPUsPerNode, env.Nodes
	sg := size / int64(g) // per-local-rank slice
	if sg%4 != 0 {
		return nil, fmt.Errorf("%s: slice %d not aligned", a.Name(), sg)
	}

	// Scratch: phase A packets (slot per local sender), phase B cross-node
	// partials (slot per node), phase C packets (slot per local sender).
	scrA := c.alloc("2phll.scrA", sg*int64(g))
	scrB := c.alloc("2phll.scrB", sg*int64(nodes))
	scrC := c.alloc("2phll.scrC", sg*int64(g))
	// Intra-node meshes per node; cross-node port meshes per local index.
	meshA := make([]*mesh[*core.MemoryChannel], nodes)
	meshC := make([]*mesh[*core.MemoryChannel], nodes)
	for node := 0; node < nodes; node++ {
		rs := c.NodeRanks(node)
		meshA[node] = newMesh(c, rs, in, scrA)
		meshC[node] = newMesh(c, rs, out, scrC)
	}
	portB := make([]*mesh[*core.PortChannel], g)
	for l := 0; l < g; l++ {
		portB[l] = newPortMesh(c, c.SameLocalRanks(l), out, scrB)
	}

	// One block in the latency regime, four above 256 KiB.
	blocks := int64(1)
	if size > 256<<10 {
		blocks = 4
	}
	nTB := threadBlocks(blocks, 1, 4)
	// iter counts invocations; the kernel derives its packet flags from it.
	var iter uint64
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		flagA, flagC := 2*iter, 2*iter+1
		node, l := r/g, r%g
		mA, mC, pB := meshA[node], meshC[node], portB[l]
		sliceOff := int64(l) * sg
		mySlice := region{out[r], sliceOff, 0}
		// Phase A: local LL ReduceScatter. Send slice l' of my input
		// to local peer (node, l'), tagged with my local index.
		llAllPairs(k, mA, r, scrA, region{in[r], 0, sg}, mySlice, sg, flagA, true)
		k.GridBarrier()
		// Phase B: one-phase all-pairs across nodes (port channels;
		// each rank reduces all node partials redundantly).
		if k.Block == 0 {
			for _, p := range pB.peers[r] {
				pB.at(r, p).Put(k, int64(node)*sg, sliceOff, sg, 0, 1)
				pB.at(r, p).Signal(k)
			}
		}
		k.GridBarrier()
		for _, p := range pB.peers[r] {
			if k.Block == 0 {
				pB.at(r, p).Wait(k)
			}
			k.GridBarrier()
			k.ReduceShard(out[r], sliceOff, scrB[r], int64(p/g)*sg, sg, k.Block, k.NumBlocks)
			k.GridBarrier()
		}
		// Phase C: local LL AllGather of the finished slice.
		llAllPairs(k, mC, r, scrC, mySlice, region{out[r], 0, sg}, sg, flagC, false)
	})
	return NewExec(a.Name(), func() { iter++; launch.Start() }), nil
}

// AllReduce2PHHB is the hierarchical AllReduce for large multi-node messages
// (paper §6.4, second variant): intra-node ReduceScatter pipelined with
// minimal cross-node all-pairs ReduceScatter/AllGather over PortChannels,
// then intra-node AllGather. Data is split into GPUsPerNode slices and each
// slice into Nodes sub-slices, so cross-node traffic is the minimum
// 2*(M-1)*S/N per NIC.
type AllReduce2PHHB struct{}

// Name implements Algorithm.
func (a *AllReduce2PHHB) Name() string { return "mscclpp-2PH-HB" }

// Prepare implements Algorithm.
func (a *AllReduce2PHHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, multiNode, in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	g, nodes := env.GPUsPerNode, env.Nodes
	sg := size / int64(g)    // per-local-rank slice
	sgm := sg / int64(nodes) // per-node sub-slice
	if sgm%4 != 0 || sgm == 0 {
		return nil, fmt.Errorf("%s: sub-slice %d not usable", a.Name(), sgm)
	}

	// Cross-node RS scratch: slot per sender node.
	scrRS := c.alloc("2phhb.scr", sgm*int64(nodes))
	meshIntra := make([]*mesh[*core.MemoryChannel], nodes)
	for node := 0; node < nodes; node++ {
		meshIntra[node] = newMesh(c, c.NodeRanks(node), in, in)
	}
	portRS := make([]*mesh[*core.PortChannel], g)
	portAG := make([]*mesh[*core.PortChannel], g)
	for l := 0; l < g; l++ {
		rs := c.SameLocalRanks(l)
		portRS[l] = newPortMesh(c, rs, out, scrRS)
		portAG[l] = newPortMesh(c, rs, out, out)
	}
	nTB := threadBlocks(size/(2<<20), 4, 16)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		node, l := r/g, r%g
		mI, pRS, pAG := meshIntra[node], portRS[l], portAG[l]
		sliceOff := int64(l) * sg
		// Phase A: per sub-slice, intra-node pull-ReduceScatter,
		// then immediately ship the sub-slice to its owner node
		// (asynchronous put overlaps the next sub-slice's pull).
		for sub := 0; sub < nodes; sub++ {
			off := sliceOff + int64(sub)*sgm
			k.CopyShard(out[r], off, in[r], off, sgm, k.Block, k.NumBlocks)
			for _, p := range mI.peers[r] {
				mI.at(r, p).ReduceBuf(k, out[r], off,
					in[p], off, sgm, k.Block, k.NumBlocks)
			}
			k.GridBarrier()
			if sub != node && k.Block == 0 {
				owner := sub*g + l
				pRS.at(r, owner).Put(k, int64(node)*sgm, off, sgm, 0, 1)
				pRS.at(r, owner).Signal(k)
			}
		}
		// Phase B: reduce the other nodes' contributions to my
		// sub-slice as they arrive.
		myOff := sliceOff + int64(node)*sgm
		for _, p := range pRS.peers[r] {
			if k.Block == 0 {
				pRS.at(r, p).Wait(k)
			}
			k.GridBarrier()
			k.ReduceShard(out[r], myOff, scrRS[r], int64(p/g)*sgm, sgm, k.Block, k.NumBlocks)
			k.GridBarrier()
		}
		// Phase C: cross-node AllGather of my finished sub-slice,
		// zero-copy into peers' outputs.
		if k.Block == 0 {
			for _, p := range pAG.peers[r] {
				pAG.at(r, p).Put(k, myOff, myOff, sgm, 0, 1)
				pAG.at(r, p).Signal(k)
			}
			for _, p := range pAG.peers[r] {
				pAG.at(r, p).Wait(k)
			}
		}
		k.GridBarrier()
		// Phase D: intra-node AllGather of the full slice l.
		for _, p := range mI.peers[r] {
			mI.at(r, p).PutBuf(k, out[p], sliceOff,
				out[r], sliceOff, sg, k.Block, k.NumBlocks)
		}
		k.GridBarrier()
		mI.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}
