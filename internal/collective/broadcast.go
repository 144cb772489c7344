package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// BroadcastFlat is the single-node Broadcast: the root writes the buffer
// directly into every peer's output with sharded thread-copy puts and one
// signal round — zero-copy and single-step, in contrast to send/recv chains.
type BroadcastFlat struct {
	Root int
}

// Name implements Algorithm.
func (a *BroadcastFlat) Name() string { return "mscclpp-Broadcast-Flat" }

// Prepare implements Algorithm. in[root] is the source; out[r] receives the
// buffer on every rank (in[r] for r != root is ignored, as in NCCL when
// sendbuff==recvbuff conventions are not used).
func (a *BroadcastFlat) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	root := a.Root
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%s: root %d out of range", a.Name(), root)
	}
	ranks := AllRanks(n)
	m := newMesh(c, ranks, in, out)
	nTB := threadBlocks(size/(256<<10), 2, 24)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		if r == root {
			for _, p := range m.peers[r] {
				m.at(r, p).Put(k, 0, 0, size, k.Block, k.NumBlocks)
			}
			k.CopyShard(out[r], 0, in[r], 0, size, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 {
				for _, p := range m.peers[r] {
					m.at(r, p).Signal(k)
				}
			}
		} else if k.Block == 0 {
			m.at(r, root).Wait(k)
		}
		k.GridBarrier()
	})
	return NewExec(a.Name(), launch.Start), nil
}

// BroadcastSwitch multicasts the root's buffer through the NVSwitch in a
// single multimem.st pass (H100).
type BroadcastSwitch struct {
	Root int
}

// Name implements Algorithm.
func (a *BroadcastSwitch) Name() string { return "mscclpp-Broadcast-Switch" }

// Prepare implements Algorithm.
func (a *BroadcastSwitch) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, nvSwitch, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	root := a.Root
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%s: root %d out of range", a.Name(), root)
	}
	ranks := AllRanks(n)
	outChans := c.C.NewSwitchChannels(ranks, out)
	bar := newBarrier(c, ranks)
	nTB := threadBlocks(size/(256<<10), 2, 24)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		if r == root {
			outChans[r].BroadcastFrom(k, in[r], 0, 0, size, k.Block, k.NumBlocks)
		}
		k.GridBarrier()
		bar.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}

// Broadcast is the one-call Collective API for Broadcast from root.
func (c *Comm) Broadcast(in, out []*mem.Buffer, root int) (sim.Duration, error) {
	pick := func(size int64) Algorithm {
		if c.M.Env.Nodes == 1 && c.M.Env.HasMulticast && size >= 1<<20 {
			return &BroadcastSwitch{Root: root}
		}
		return &BroadcastFlat{Root: root}
	}
	return c.selectRun(pick, in, "input", in, out)
}
