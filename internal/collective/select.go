package collective

import (
	"fmt"

	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// Op identifies a collective operation in the NCCL-compatible API.
type Op int

const (
	// OpAllReduce sums inputs across ranks and broadcasts the result.
	OpAllReduce Op = iota
	// OpAllGather concatenates per-rank shards on every rank.
	OpAllGather
	// OpReduceScatter sums inputs and scatters 1/N slices.
	OpReduceScatter
)

// String names the collective, e.g. "AllReduce".
func (o Op) String() string {
	switch o {
	case OpAllReduce:
		return "AllReduce"
	case OpAllGather:
		return "AllGather"
	case OpReduceScatter:
		return "ReduceScatter"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// SelectAllReduce returns the library's algorithm choice for an AllReduce of
// size bytes on the communicator's environment — the paper's tuned defaults
// (Section 6: 1PA for very small single-node, 2PA for mid sizes with the
// SwitchChannel variant on NVLS hardware, 2PR ring over PortChannel at the
// top end, 2PH for multi-node split by LL/HB protocol).
func (c *Comm) SelectAllReduce(size int64) Algorithm {
	env := c.M.Env
	if env.Nodes > 1 {
		if size <= 1<<20 {
			return &AllReduce2PHLL{}
		}
		return &AllReduce2PHHB{}
	}
	switch {
	case size <= 16<<10:
		return &AllReduce1PA{}
	case size <= 1<<20:
		return &AllReduce2PALL{}
	case env.HasMulticast:
		return &AllReduce2PASwitch{}
	case size >= 256<<20:
		return &AllReduce2PR{}
	default:
		return &AllReduce2PAHB{}
	}
}

// SelectAllGather returns the tuned AllGather choice for a given output
// (gathered) size in bytes.
func (c *Comm) SelectAllGather(totalSize int64) Algorithm {
	env := c.M.Env
	if env.Nodes > 1 {
		return &AllGatherHier{}
	}
	switch {
	case totalSize <= 256<<10:
		return &AllGatherAllPairsLL{}
	case totalSize <= 64<<20 || !env.HasMulticast:
		if totalSize >= 256<<20 {
			return &AllGatherRing{}
		}
		return &AllGatherAllPairsHB{}
	default:
		return &AllGatherSwitch{}
	}
}

// SelectReduceScatter returns the tuned ReduceScatter choice for a given
// input size in bytes.
func (c *Comm) SelectReduceScatter(totalSize int64) Algorithm {
	switch {
	case totalSize <= 256<<10:
		return &ReduceScatterAllPairsLL{}
	case totalSize >= 256<<20:
		return &ReduceScatterRing{}
	default:
		return &ReduceScatterAllPairsHB{}
	}
}

// AllReduce is the one-call Collective API: it selects the tuned algorithm,
// prepares it, runs one invocation and returns the elapsed virtual time.
// For repeated invocations on the same buffers, Prepare once and Run the
// Exec directly.
func (c *Comm) AllReduce(in, out []*mem.Buffer) (sim.Duration, error) {
	return c.selectRun(c.SelectAllReduce, in, "input", in, out)
}

// selectRun validates the buffers the selection is sized by, then prepares
// the algorithm selectAlgo picks for their size on in and out and runs it
// once.
func (c *Comm) selectRun(selectAlgo func(int64) Algorithm, by []*mem.Buffer, what string, in, out []*mem.Buffer) (sim.Duration, error) {
	size, err := validateEqualSized(c, by, what)
	if err != nil {
		return 0, err
	}
	return c.prepareRun(selectAlgo(size), in, out)
}

// prepareRun prepares algo on in and out and runs it once.
func (c *Comm) prepareRun(algo Algorithm, in, out []*mem.Buffer) (sim.Duration, error) {
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		return 0, err
	}
	return c.Run(ex)
}

// AllGather is the one-call Collective API for AllGather.
func (c *Comm) AllGather(in, out []*mem.Buffer) (sim.Duration, error) {
	return c.selectRun(c.SelectAllGather, out, "output", in, out)
}

// ReduceScatter is the one-call Collective API for ReduceScatter.
func (c *Comm) ReduceScatter(in, out []*mem.Buffer) (sim.Duration, error) {
	return c.selectRun(c.SelectReduceScatter, in, "input", in, out)
}

// AllReduceAlgorithms lists every AllReduce algorithm applicable to the
// communicator's environment (used by benchmark sweeps that report the best
// per size, as the paper does).
func (c *Comm) AllReduceAlgorithms() []Algorithm {
	if c.M.Env.Nodes > 1 {
		return []Algorithm{&AllReduce2PHLL{}, &AllReduce2PHHB{}}
	}
	algos := []Algorithm{
		&AllReduce1PA{}, &AllReduce2PALL{}, &AllReduce2PAHB{},
		&AllReduce2PR{}, &AllReduce2PR{UseMemoryChannel: true},
	}
	if c.M.Env.HasMulticast {
		algos = append(algos, &AllReduce2PASwitch{})
	}
	return algos
}

// AllGatherAlgorithms lists applicable AllGather algorithms.
func (c *Comm) AllGatherAlgorithms() []Algorithm {
	if c.M.Env.Nodes > 1 {
		return []Algorithm{&AllGatherHier{}}
	}
	algos := []Algorithm{
		&AllGatherAllPairsLL{}, &AllGatherAllPairsHB{}, &AllGatherRing{},
	}
	if c.M.Env.HasMulticast {
		algos = append(algos, &AllGatherSwitch{})
	}
	return algos
}
