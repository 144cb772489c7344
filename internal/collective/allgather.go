package collective

import (
	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllGatherAllPairsLL gathers with the LL protocol: every rank packet-puts
// its shard to every peer's scratch and unpacks on arrival. Lowest latency
// for small shards.
type AllGatherAllPairsLL struct{}

// Name implements Algorithm.
func (a *AllGatherAllPairsLL) Name() string { return "mscclpp-AG-AllPairs-LL" }

// Prepare implements Algorithm.
func (a *AllGatherAllPairsLL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := validateShardBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	scratch := c.alloc("agll.scratch", shard*int64(n))
	m := newMesh(c, ranks, in, scratch)
	nTB := threadBlocks(shard/(16<<10)+1, 1, 4)
	// flag is the current invocation's packet flag; every invocation advances it.
	var flag uint64
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		llAllPairs(k, m, r, scratch, region{in[r], 0, 0}, region{out[r], 0, shard}, shard, flag, false)
	})
	return NewExec(a.Name(), func() { flag++; launch.Start() }), nil
}

// AllGatherAllPairsHB gathers with direct zero-copy puts: every rank writes
// its shard straight into every peer's output buffer and signals once. One
// synchronization round, no scratch, no unpack — MSCCL++'s advantage over
// send/recv libraries.
type AllGatherAllPairsHB struct{}

// Name implements Algorithm.
func (a *AllGatherAllPairsHB) Name() string { return "mscclpp-AG-AllPairs-HB" }

// Prepare implements Algorithm.
func (a *AllGatherAllPairsHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := validateShardBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	m := newMesh(c, ranks, in, out)
	nTB := threadBlocks(shard/(128<<10), 2, 16)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		for _, p := range m.peers[r] {
			m.at(r, p).Put(k, int64(r)*shard, 0, shard, k.Block, k.NumBlocks)
		}
		k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, k.Block, k.NumBlocks)
		k.GridBarrier()
		m.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}

// AllGatherRing forwards shards around a PortChannel ring (DMA engines),
// zero-copy into outputs: best intra-node bandwidth at large shard sizes.
type AllGatherRing struct{}

// Name implements Algorithm.
func (a *AllGatherRing) Name() string { return "mscclpp-AG-Ring-Port" }

// Prepare implements Algorithm.
func (a *AllGatherRing) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := validateShardBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	send, recv := newRing(n, portPair(c, out, out))
	nTB := threadBlocks(4, 4, 4)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, k.Block, k.NumBlocks)
		k.GridBarrier()
		if k.Block == 0 {
			for s := 0; s < n-1; s++ {
				cs := int64((r+n-s)%n) * shard // shard to forward
				send[r].Put(k, cs, cs, shard, 0, 1)
				send[r].Signal(k)
				recv[r].Wait(k)
			}
			send[r].Flush(k)
		}
		k.GridBarrier()
	})
	return NewExec(a.Name(), launch.Start), nil
}

// AllGatherSwitch multicasts each shard through the NVSwitch (multimem.st):
// one store pass per rank, fanned out in-network.
type AllGatherSwitch struct{}

// Name implements Algorithm.
func (a *AllGatherSwitch) Name() string { return "mscclpp-AG-Switch" }

// Prepare implements Algorithm.
func (a *AllGatherSwitch) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := validateShardBufs(c, a, nvSwitch, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	outChans := c.C.NewSwitchChannels(ranks, out)
	bar := newBarrier(c, ranks)
	nTB := threadBlocks(shard/(256<<10), 2, 16)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		// Stage my shard into my own out region, then multicast it.
		k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, k.Block, k.NumBlocks)
		k.GridBarrier()
		outChans[r].Broadcast(k, int64(r)*shard, int64(r)*shard, shard, k.Block, k.NumBlocks)
		k.GridBarrier()
		bar.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}

// AllGatherHier is the hierarchical multi-node AllGather: cross-node
// all-pairs among same-local ranks (each rank gathers its column), then
// intra-node broadcast of the gathered columns.
type AllGatherHier struct{}

// Name implements Algorithm.
func (a *AllGatherHier) Name() string { return "mscclpp-AG-2PH" }

// Prepare implements Algorithm.
func (a *AllGatherHier) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := validateShardBufs(c, a, multiNode, in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	g, nodes := env.GPUsPerNode, env.Nodes
	portCol := make([]*mesh[*core.PortChannel], g)
	for l := 0; l < g; l++ {
		portCol[l] = newPortMesh(c, c.SameLocalRanks(l), out, out)
	}
	meshLocal := make([]*mesh[*core.MemoryChannel], nodes)
	for node := 0; node < nodes; node++ {
		meshLocal[node] = newMesh(c, c.NodeRanks(node), out, out)
	}
	nTB := threadBlocks(4, 4, 4)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		node, l := r/g, r%g
		pc, ml := portCol[l], meshLocal[node]
		// Stage own shard.
		k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, k.Block, k.NumBlocks)
		k.GridBarrier()
		// Cross-node: send my shard to all same-local peers.
		if k.Block == 0 {
			for _, p := range pc.peers[r] {
				pc.at(r, p).Put(k, int64(r)*shard, int64(r)*shard, shard, 0, 1)
				pc.at(r, p).Signal(k)
			}
			for _, p := range pc.peers[r] {
				pc.at(r, p).Wait(k)
			}
		}
		k.GridBarrier()
		// Intra-node: broadcast my gathered column (shards of all
		// (n', l)) to local peers' outputs.
		for n2 := 0; n2 < nodes; n2++ {
			src := int64(n2*g+l) * shard
			for _, p := range ml.peers[r] {
				ml.at(r, p).PutBuf(k, out[p], src, out[r], src,
					shard, k.Block, k.NumBlocks)
			}
		}
		k.GridBarrier()
		ml.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}
