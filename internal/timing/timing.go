// Package timing holds the calibrated software-side cost model layered over
// the raw hardware characteristics in package topology.
//
// Every constant here attaches to a mechanism described in the paper
// (Sections 4 and 6): the GPU->CPU proxy FIFO of PortChannel, LL packet flag
// overhead of MemoryChannel, semaphore signal/wait costs, thread-copy
// throughput scaling, and so on. Baselines and MSCCL++ pay for what they
// actually do; there are no per-library fudge factors.
package timing

import (
	"math"

	"mscclpp/internal/topology"
)

// Model is the per-environment cost model. All durations are nanoseconds,
// all bandwidths bytes/ns (== GB/s).
type Model struct {
	Env *topology.Env

	// --- Kernel-side costs ---

	// KernelLaunch is the fixed cost to start and tear down one collective
	// GPU kernel (graph-captured launch, parameter load, TB dispatch).
	KernelLaunch int64
	// TBSyncCost is one intra-thread-block __syncthreads().
	TBSyncCost int64
	// DeviceBarrierCost is a grid-wide barrier across thread blocks.
	DeviceBarrierCost int64
	// InstrOverhead is the fixed per-primitive-call overhead inside a kernel
	// (offset arithmetic, channel state loads). Fused primitives pay it once.
	InstrOverhead int64

	// --- MemoryChannel (thread-copy) ---

	// ThreadCopyBWPerTB is the peer-to-peer copy bandwidth one thread block
	// sustains; multiple TBs scale linearly until the link saturates.
	ThreadCopyBWPerTB float64
	// ThreadCopyPeakFrac is the fraction of raw link bandwidth that SM
	// thread-copy can reach (copy engines get slightly closer to the wire
	// rate than load/store loops; paper §7.1 reports PortChannel ~6% above
	// MemoryChannel at 1 GB).
	ThreadCopyPeakFrac float64
	// ReduceBWPerTB is the load+add+store streaming rate of one TB when
	// reducing remote data into local memory.
	ReduceBWPerTB float64
	// LocalCopyBWPerTB is one TB's local HBM copy bandwidth.
	LocalCopyBWPerTB float64
	// LLTrafficFactor multiplies wire traffic for the LL protocol (data is
	// interleaved with flags; 8-byte data + 8-byte flag per 16-byte packet
	// doubles traffic).
	LLTrafficFactor float64
	// LLCheckCost is the receiver-side cost of one flag poll round.
	LLCheckCost int64

	// --- Semaphore synchronization (HB protocol, PortChannel) ---

	// SemSignalCost is the issue cost of an atomic increment on a remote
	// semaphore (the store itself travels at link latency).
	SemSignalCost int64
	// SemWaitWake is the wake-up granularity of a busy-wait loop: time from
	// the semaphore value becoming visible to the waiting kernel proceeding.
	SemWaitWake int64
	// MemFenceCost is a __threadfence_system() before signaling.
	MemFenceCost int64

	// --- PortChannel proxy path (paper Figure 4) ---

	// FifoPushCost is the GPU-side cost to append a request to the proxy
	// FIFO (write element + bump head over PCIe-visible memory).
	FifoPushCost int64
	// ProxyPollInterval is how often the CPU proxy thread samples the FIFO
	// tail; a request waits on average half of this.
	ProxyPollInterval int64
	// ProxyHandleCost is the CPU cost to decode one request and initiate the
	// transfer (ibv_post_send / cudaMemcpyAsync).
	ProxyHandleCost int64
	// FlushCheckCost is the CPU cost of one completion-queue poll.
	FlushCheckCost int64

	// --- Baseline library mechanisms ---

	// StagingCopyBWPerTB is the rate at which a baseline (NCCL-style)
	// send/recv moves data through its internal staging buffers; each hop
	// pays an extra local copy at this rate.
	StagingCopyBWPerTB float64
	// BaselineProtoOverhead is the per-step protocol cost of a synchronous
	// two-sided send/recv rendezvous (ready-flag exchange both directions).
	BaselineProtoOverhead int64
	// BaselineLaunch is the baseline library's kernel launch cost; NCCL's
	// generic kernel loads a larger parameter/work-elem state.
	BaselineLaunch int64

	// DSLDispatch is the per-operation overhead of the DSL Executor's
	// interpreter loop (paper §7.1: DSL versions average ~3% slower than
	// direct Primitive API implementations).
	DSLDispatch int64
}

// Default returns the calibrated model for env.
//
// Calibration anchors (paper Table 1 and Section 7.1):
//   - H100 MemoryChannel p2p latency 829 ns vs best-achievable 822 ns.
//   - H100 PortChannel IB latency 4.89 us vs perftest 3.76 us (proxy adds
//     ~1.1 us: FIFO push + poll + handling).
//   - PortChannel NVLink throughput reaches the nvbandwidth peak.
//   - Single-node 1 KB AllReduce (1PA/LL) ~5 us on A100.
func Default(env *topology.Env) *Model {
	m := &Model{
		Env: env,

		KernelLaunch:      1100,
		TBSyncCost:        40,
		DeviceBarrierCost: 350,
		InstrOverhead:     25,

		ThreadCopyBWPerTB:  22.0,
		ThreadCopyPeakFrac: 0.94,
		ReduceBWPerTB:      16.0,
		LocalCopyBWPerTB:   60.0,
		LLTrafficFactor:    2.0,
		LLCheckCost:        60,

		SemSignalCost: 90,
		SemWaitWake:   120,
		MemFenceCost:  150,

		FifoPushCost:      180,
		ProxyPollInterval: 450,
		ProxyHandleCost:   350,
		FlushCheckCost:    200,

		StagingCopyBWPerTB:    26.0,
		BaselineProtoOverhead: 600,
		BaselineLaunch:        1700,

		DSLDispatch: 55,
	}
	if env.IntraMesh {
		// CDNA CUs sustain slightly lower per-CU copy rates over xGMI but the
		// mesh provides more aggregate paths.
		m.ThreadCopyBWPerTB = 18.0
		m.ReduceBWPerTB = 14.0
	}
	return m
}

// ThreadCopyBW returns the aggregate copy bandwidth of n thread blocks over
// a link with capacity linkBW.
func (m *Model) ThreadCopyBW(n int, linkBW float64) float64 {
	if n < 1 {
		n = 1
	}
	bw := float64(n) * m.ThreadCopyBWPerTB
	if peak := m.ThreadCopyPeakFrac * linkBW; bw > peak {
		return peak
	}
	return bw
}

// LocalReduceBW returns the aggregate local (HBM) reduce bandwidth of n
// thread blocks, capped by device memory bandwidth.
func (m *Model) LocalReduceBW(n int) float64 {
	if n < 1 {
		n = 1
	}
	// A local reduce streams two reads and one write; cap at a third of HBM.
	bw := float64(n) * m.ReduceBWPerTB * 2
	cap3 := m.Env.HBMBW / 3
	if bw > cap3 {
		return cap3
	}
	return bw
}

// XferTime returns size/bw rounded up to whole nanoseconds, guarding against
// degenerate inputs. Rounding up (rather than truncating toward zero) keeps
// every positive-size transfer at >= 1 ns: with truncation, any message
// smaller than the link's per-ns byte rate — e.g. a 16-byte LL packet on a
// 400 GB/s NVLink — was modeled as free, which understated wire occupancy
// for exactly the small-message regime the paper's latency figures measure.
func XferTime(size int64, bw float64) int64 {
	if size <= 0 || bw <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(size) / bw))
}
