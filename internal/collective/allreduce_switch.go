package collective

import (
	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce2PASwitch is the SwitchChannel AllReduce for NVSwitch-SHARP
// machines (paper §4.3, §7.2): each rank runs the fused
// multimem.ld_reduce + multimem.st loop over its 1/N slice — the switch
// aggregates inputs in-network and multicasts results — bracketed by rank
// barriers. This is the "15 lines of Python" kernel.
type AllReduce2PASwitch struct{}

// Name implements Algorithm.
func (a *AllReduce2PASwitch) Name() string { return "mscclpp-2PA-Switch" }

// Prepare implements Algorithm.
func (a *AllReduce2PASwitch) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, nvSwitch, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	slice := size / int64(n)
	inChans := c.C.NewSwitchChannels(ranks, in)
	outChans := c.C.NewSwitchChannels(ranks, out)
	bar := newBarrier(c, ranks)
	nTB := threadBlocks(size/(256<<10), 2, 24)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		// Entry barrier: all inputs registered and ready.
		bar.sync(k, r)
		// Fused in-switch reduce + multicast of my slice.
		core.FusedReduceBroadcast(k, inChans[r], outChans[r],
			int64(r)*slice, int64(r)*slice, slice, k.Block, k.NumBlocks)
		k.GridBarrier()
		// Exit barrier: my output regions written by peers' stores.
		bar.sync(k, r)
	})
	return NewExec(a.Name(), launch.Start), nil
}
