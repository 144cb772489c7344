// Package mscclpp is the public API of the MSCCL++ reproduction: a
// simulation-backed implementation of the paper's three-layer GPU
// communication stack (Primitive API, DSL, Collective API) together with
// the NCCL/MSCCL baseline libraries, LLM-inference workload models and the
// benchmark harness that regenerates the paper's tables and figures.
//
// The layers map to the paper as follows:
//
//   - Primitive API (paper §4): Communicator, MemoryChannel, PortChannel,
//     SwitchChannel — one-sided, zero-copy, asynchronous channel primitives
//     over simulated NVLink/xGMI/InfiniBand hardware.
//   - DSL (paper §5): NewProgram and the Program builder — a global-view
//     language for custom collective algorithms, lowered (with dependence
//     analysis and operation fusion) to execution plans interpreted by the
//     Executor.
//   - Collective API (paper §6): NewComm's AllReduce / AllGather /
//     ReduceScatter with the tuned algorithm library (1PA, 2PA, 2PR, 2PH).
//
// Quick start:
//
//	cluster := mscclpp.NewCluster(mscclpp.A100x40G(1))
//	comm := mscclpp.NewComm(cluster)
//	in, out := ... // per-rank buffers via cluster.Alloc
//	elapsed, err := comm.AllReduce(in, out)
//
// All results are measured in deterministic *virtual* time: a simulation
// always replays identically, so reported latencies and bandwidths are
// properties of the modeled hardware, independent of the host machine. The
// execution substrate (internal/sim) is tuned for simulator *wall-clock*
// throughput — an allocation-free event engine whose processes run as
// pooled coroutines (microbenchmarks: go test ./internal/sim
// -bench=BenchmarkEngine -benchmem; history in BENCH_sim.json) — and the
// benchmark harness runs independent simulations in parallel across cores
// without perturbing any virtual-time result.
package mscclpp

import (
	"mscclpp/internal/collective"
	"mscclpp/internal/core"
	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/plan"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Core simulated-cluster types.
type (
	// Env describes a cluster environment (paper Table 2).
	Env = topology.Env
	// Cluster is a simulated multi-GPU machine.
	Cluster = machine.Machine
	// Kernel is the execution context of a simulated thread block; Primitive
	// API calls are made from kernels. A block's calls queue on it, and the
	// block's own reads of buffer data and of the clock wait for them, so a
	// body sees what it would if every call blocked until done.
	Kernel = machine.Kernel
	// Buffer is simulated GPU memory registered for communication.
	Buffer = mem.Buffer
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
)

// Primitive API (paper §4).
type (
	// Communicator performs bootstrap: connection setup between GPUs.
	Communicator = core.Communicator
	// MemoryChannel is memory-mapped I/O (peer-to-peer thread copy; LL and
	// HB protocols).
	MemoryChannel = core.MemoryChannel
	// PortChannel is port-mapped I/O (DMA/RDMA via a CPU proxy FIFO).
	PortChannel = core.PortChannel
	// SwitchChannel is switch-mapped I/O (in-network reduce/multicast).
	SwitchChannel = core.SwitchChannel
	// Channel is the transport-generic synchronization interface.
	Channel = core.Channel
)

// Collective API (paper §6).
type (
	// Comm is the NCCL-style collective communicator.
	Comm = collective.Comm
	// Exec is a prepared (channels set up) collective invocation.
	Exec = collective.Exec
	// Algorithm is one collective algorithm implementation.
	Algorithm = collective.Algorithm
)

// DSL and Executor (paper §5).
type (
	// Program is a DSL program under construction.
	Program = dsl.Program
	// DSLBuffer is a buffer in the DSL's global view.
	DSLBuffer = dsl.Buffer
	// DSLChunk is a byte range of a DSL buffer.
	DSLChunk = dsl.Chunk
	// DSLMemChannel is a directional memory channel in the DSL.
	DSLMemChannel = dsl.MemChannel
	// DSLPortChannel is a directional port channel in the DSL.
	DSLPortChannel = dsl.PortChannel
	// TBGroup is a thread-block group cooperating on one DSL operation.
	TBGroup = dsl.TBGroup
	// Plan is a lowered, JSON-serializable execution plan.
	Plan = plan.Plan
	// ExecutorInstance interprets a plan over concrete buffers.
	ExecutorInstance = executor.Instance
)

// Environments (paper Table 2).
var (
	// A100x40G builds the A100-40G environment with the given node count.
	A100x40G = topology.A100_40G
	// A100x80G builds the A100-80G environment.
	A100x80G = topology.A100_80G
	// H100 builds the H100 environment (NVLink 4.0 + NVSwitch SHARP).
	H100 = topology.H100
	// MI300x builds the AMD MI300x environment (xGMI mesh).
	MI300x = topology.MI300x
)

// NewCluster builds a simulated cluster for env.
func NewCluster(env *Env) *Cluster { return machine.New(env) }

// NewComm returns a Collective-API communicator over all ranks of c.
func NewComm(c *Cluster) *Comm { return collective.New(c) }

// NewCommunicator returns a Primitive-API bootstrap communicator.
func NewCommunicator(c *Cluster) *Communicator { return core.NewCommunicator(c) }

// NewProgram starts a DSL program (see package documentation and paper §5).
func NewProgram(name, collectiveName string, ranks, numTB int, inSize, outSize int64) *Program {
	return dsl.NewProgram(name, collectiveName, ranks, numTB, inSize, outSize)
}

// NewExecutor binds a lowered plan to buffers, building all channels.
func NewExecutor(c *Communicator, p *Plan, in, out []*Buffer) (*ExecutorInstance, error) {
	return executor.New(c, p, in, out)
}

// AllReduce algorithms (paper §6), exposed for explicit selection and for
// the ablation benchmarks.
type (
	// AllReduce1PA is one-phase all-pairs with the LL protocol.
	AllReduce1PA = collective.AllReduce1PA
	// AllReduce2PALL is two-phase all-pairs, LL protocol.
	AllReduce2PALL = collective.AllReduce2PALL
	// AllReduce2PAHB is two-phase all-pairs, HB protocol.
	AllReduce2PAHB = collective.AllReduce2PAHB
	// AllReduce2PASwitch is the NVSwitch-SHARP (multimem) variant.
	AllReduce2PASwitch = collective.AllReduce2PASwitch
	// AllReduce2PR is the two-phase ring with DMA/reduction overlap.
	AllReduce2PR = collective.AllReduce2PR
	// AllReduce2PHLL is hierarchical multi-node, LL protocol.
	AllReduce2PHLL = collective.AllReduce2PHLL
	// AllReduce2PHHB is hierarchical multi-node, HB protocol.
	AllReduce2PHHB = collective.AllReduce2PHHB
)

// Test/bench data helpers.
var (
	// FillInputs fills per-rank buffers with a deterministic pattern.
	FillInputs = collective.FillInputs
	// CheckAllReduce verifies an AllReduce result.
	CheckAllReduce = collective.CheckAllReduce
	// CheckAllGather verifies an AllGather result.
	CheckAllGather = collective.CheckAllGather
	// CheckReduceScatter verifies a ReduceScatter result.
	CheckReduceScatter = collective.CheckReduceScatter
)

// DSL program library (paper §6: collectives authored in the DSL).
var (
	// BuildAllReduce1PA authors the 1PA algorithm in the DSL.
	BuildAllReduce1PA = dsl.BuildAllReduce1PA
	// BuildAllReduce2PAHB authors the 2PA-HB algorithm in the DSL.
	BuildAllReduce2PAHB = dsl.BuildAllReduce2PAHB
	// BuildRingReduceScatter authors paper Figure 6's overlapped ring
	// ReduceScatter in the DSL.
	BuildRingReduceScatter = dsl.BuildRingReduceScatter
)
