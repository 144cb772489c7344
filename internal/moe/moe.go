// Package moe implements the DeepEP-style expert-parallel dispatch/combine
// communication of paper Section 7.3 and Figure 13: Mixture-of-Experts
// token routing across two H100 nodes (16 GPUs, 256 experts, top-k 8,
// FP8 dispatch and BF16 combine), over either MSCCL++ PortChannels (CPU
// proxy RDMA) or an NVSHMEM-IBGDA-style GPU-initiated RDMA stack.
//
// Beyond the Figure 13 bandwidth curves, the package models deterministic
// expert imbalance (Config.Skew routes a fixed fraction of activations to
// a hot expert set) and an expert-placement knob (Config.Placement:
// uniform block placement vs a skew-aware stride remap), which the serving
// layer prices expert-parallel decode iterations against.
package moe

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Transport selects the networking stack.
type Transport string

// Transports.
const (
	// TransportMSCCLPP routes cross-GPU traffic through MSCCL++
	// PortChannels (RDMA driven by the CPU proxy, paper Figure 4).
	TransportMSCCLPP Transport = "mscclpp"
	// TransportIBGDA models NVSHMEM's InfiniBand GPUDirect Async: the GPU
	// posts RDMA work requests directly to the NIC, bypassing the CPU.
	TransportIBGDA Transport = "nvshmem-ibgda"
)

// Placement selects the expert-to-GPU map.
type Placement int

// Placements. PlaceUniform is the zero value.
const (
	// PlaceUniform assigns contiguous expert blocks: expert e lives on GPU
	// e / (Experts/n). Under hot-expert skew the entire hot set (experts
	// 0..TopK-1) co-locates on GPU 0, concentrating the imbalance.
	PlaceUniform Placement = iota
	// PlaceRebalance is the skew-aware remap: expert e lives on GPU e % n,
	// striding the hot set across the cluster so no single GPU absorbs the
	// skewed traffic. Per-GPU expert counts stay exactly Experts/n.
	PlaceRebalance
)

// Config describes the expert-parallel layer (DeepSeek-V3 defaults).
type Config struct {
	Hidden  int // hidden size (7168)
	TopK    int // experts per token (8)
	Experts int // total experts (256)

	// Skew is the deterministic hot-expert imbalance: the fraction (0..1)
	// of routed activations redirected to the hot expert set — experts
	// 0..TopK-1, one hot expert per top-k slot so a token's experts stay
	// distinct. Zero (the default) keeps the near-uniform routing of the
	// Figure 13 setting.
	Skew float64
	// Placement selects the expert-to-GPU map (uniform block placement vs
	// the skew-aware stride remap). Irrelevant to aggregate volume, decisive
	// for where skewed traffic lands.
	Placement Placement
}

// DefaultConfig returns the paper's DeepSeek-V3 setting.
func DefaultConfig() Config {
	return Config{Hidden: 7168, TopK: 8, Experts: 256}
}

// validate checks the config against an n-GPU cluster.
func (c Config) validate(n int) error {
	switch {
	case c.Hidden < 1:
		return fmt.Errorf("moe: Hidden = %d", c.Hidden)
	case c.TopK < 1 || c.TopK > c.Experts:
		return fmt.Errorf("moe: TopK = %d of %d experts", c.TopK, c.Experts)
	case c.Experts%n != 0:
		return fmt.Errorf("moe: %d experts not divisible by %d GPUs", c.Experts, n)
	case c.Skew < 0 || c.Skew > 1:
		return fmt.Errorf("moe: Skew = %g outside [0, 1]", c.Skew)
	case c.Placement != PlaceUniform && c.Placement != PlaceRebalance:
		return fmt.Errorf("moe: Placement = %d", c.Placement)
	}
	return nil
}

// rankTokens returns how many of `tokens` batch tokens rank r owns: tokens
// split as evenly as possible, with the first tokens%n ranks carrying one
// extra token each. This is the documented deterministic remainder split —
// no token is ever dropped, so aggregate dispatch volume is exactly
// tokens * TopK * Hidden * elemBytes regardless of divisibility.
func rankTokens(tokens, n, r int) int {
	per := tokens / n
	if r < tokens%n {
		per++
	}
	return per
}

// expertOf returns the expert serving activation (r, t, j): token t on
// rank r, top-k slot j. The base choice is the deterministic near-uniform
// hash (t*TopK + j*37 + r*11) mod Experts; with Skew > 0 a fixed fraction
// of activations (selected by a deterministic hash, well-mixed across
// ranks, tokens and slots) is redirected to hot expert j.
func (c Config) expertOf(r, t, j int) int {
	if c.Skew > 0 {
		h := (uint64(t)*1000003 + uint64(j)*7919 + uint64(r)*104729) % 1000
		if h < uint64(c.Skew*1000+0.5) {
			return j
		}
	}
	return (t*c.TopK + j*37 + r*11) % c.Experts
}

// gpuOf returns the GPU hosting an expert under the configured placement.
func (c Config) gpuOf(expert, n int) int {
	if c.Placement == PlaceRebalance {
		return expert % n
	}
	return expert / (c.Experts / n)
}

// destBytes computes how many bytes rank r sends to each destination GPU
// for its share of `tokens` total tokens: each of the rank's tokens
// (rankTokens split) activates TopK experts whose placement decides the
// destination.
func (c Config) destBytes(n, r, tokens int, elemBytes int64) []int64 {
	out := make([]int64, n)
	for t := 0; t < rankTokens(tokens, n, r); t++ {
		for j := 0; j < c.TopK; j++ {
			out[c.gpuOf(c.expertOf(r, t, j), n)] += int64(c.Hidden) * elemBytes
		}
	}
	return out
}

// TrafficMatrix returns the full n-by-n all-to-all byte matrix of one
// phase moving elemBytes per hidden element: mat[src][dst] is what src
// puts into dst (the diagonal is the local-expert HBM pass). One phase's
// sender loops and receive-wait loops are both driven from this single
// matrix, so every put has a matching wait by construction — the
// column mat[*][r] is exactly the set of peers rank r must wait for.
func (c Config) TrafficMatrix(n, tokens int, elemBytes int64) [][]int64 {
	mat := make([][]int64, n)
	for r := 0; r < n; r++ {
		mat[r] = c.destBytes(n, r, tokens, elemBytes)
	}
	return mat
}

// LoadFactor reports the expert-compute imbalance of this routing over an
// n-GPU cluster at a batch of `tokens`: the hottest GPU's received
// activation count over the per-GPU mean (1.0 = perfectly balanced,
// n = everything on one GPU). The serving layer scales the routed-expert
// FLOPs of an expert-parallel decode step by this factor — the batch is
// not done until the hottest GPU is.
func (c Config) LoadFactor(n, tokens int) float64 {
	if tokens < 1 || n < 1 {
		return 1
	}
	recv := make([]int64, n)
	var total int64
	for r := 0; r < n; r++ {
		for t := 0; t < rankTokens(tokens, n, r); t++ {
			for j := 0; j < c.TopK; j++ {
				recv[c.gpuOf(c.expertOf(r, t, j), n)]++
				total++
			}
		}
	}
	var max int64
	for _, v := range recv {
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(n) / float64(total)
}

// Engine is one expert-parallel communicator over a simulated cluster.
type Engine struct {
	M    *machine.Machine
	Cfg  Config
	mode Transport

	// MSCCL++ transport: pairwise port channels bound to token buffers,
	// send[r][p] used by rank r toward p and recv[r][p] by r from p.
	send [][]*core.PortChannel
	recv [][]*core.PortChannel
	// IBGDA transport: per-pair state indexed [src][dst]; puts are issued
	// in-kernel.
	gdaSem  [][]*sim.Semaphore
	gdaExp  [][]uint64
	gdaLast [][]sim.Time

	src []*mem.Buffer
	dst []*mem.Buffer

	// waits counts, per rank, the receive-waits the last run executed —
	// the per-rank peer set derived from the traffic-matrix column. Tests
	// pin these against the matrix to keep put/wait symmetry honest.
	waits []int

	// The dispatch and combine kernels, built by New; both run the
	// all-to-all over mat, the current phase's traffic matrix.
	dispatch, combine *machine.Launch
	mat               [][]int64
}

// maxTokensBytes bounds per-rank communication buffers (65536 tokens total,
// BF16): tokens/rank * topk * hidden * 2 fits in 512 MB virtual buffers.
const maxBufBytes = int64(1) << 30

// New builds an engine on env (expects 2 nodes of H100 for the paper
// setting, but any multi-GPU env works).
func New(env *topology.Env, cfg Config, mode Transport) (*Engine, error) {
	if env.TotalGPUs() < 2 {
		return nil, fmt.Errorf("moe: need at least 2 GPUs")
	}
	if err := cfg.validate(env.TotalGPUs()); err != nil {
		return nil, err
	}
	m := machine.New(env)
	m.MaterializeLimit = 0 // throughput experiment: timing only
	e := &Engine{M: m, Cfg: cfg, mode: mode}
	n := env.TotalGPUs()
	for r := 0; r < n; r++ {
		e.src = append(e.src, m.Alloc(r, "moe.src", maxBufBytes))
		e.dst = append(e.dst, m.Alloc(r, "moe.dst", maxBufBytes))
	}
	comm := core.NewCommunicator(m)
	switch mode {
	case TransportMSCCLPP:
		e.send, e.recv = square[*core.PortChannel](n), square[*core.PortChannel](n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				ca, cb := comm.NewPortChannelPairEx(a, b, e.src[a], e.dst[b], e.src[b], e.dst[a])
				e.send[a][b], e.recv[b][a] = ca, cb
				e.send[b][a], e.recv[a][b] = cb, ca
			}
		}
	case TransportIBGDA:
		e.gdaSem, e.gdaExp, e.gdaLast = square[*sim.Semaphore](n), square[uint64](n), square[sim.Time](n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					e.gdaSem[a][b] = sim.NewSemaphore(m.Engine, fmt.Sprintf("ibgda/%d->%d", a, b))
				}
			}
		}
	default:
		return nil, fmt.Errorf("moe: unknown transport %q", mode)
	}
	e.dispatch = m.Kernel("moe-dispatch", 1, e.kernel)
	e.combine = m.Kernel("moe-combine", 1, e.kernel)
	return e, nil
}

// square returns an n-by-n matrix of zero values.
func square[T any](n int) [][]T {
	m := make([][]T, n)
	for i := range m {
		m[i] = make([]T, n)
	}
	return m
}

// ibgdaIssueCost is the in-kernel cost of posting one RDMA work request via
// IBGDA (doorbell write + WQE build), much cheaper than the proxy path.
const ibgdaIssueCost = 120

// gdaPut issues a GPU-initiated RDMA/DMA put from rank a to rank b.
func (e *Engine) gdaPut(k *machine.Kernel, a, b int, bytes int64) {
	k.Elapse(ibgdaIssueCost)
	var complete sim.Time
	if e.M.Fabric.SameNode(a, b) {
		complete = e.M.Fabric.DMA(k.Now(), a, b, bytes)
	} else {
		complete = e.M.Fabric.RDMA(k.Now(), a, b, bytes)
	}
	if complete < e.gdaLast[a][b] {
		complete = e.gdaLast[a][b]
	}
	e.gdaLast[a][b] = complete
	e.gdaSem[a][b].SignalAt(complete + e.M.Model.SemSignalCost)
}

// Result reports one dispatch or combine phase.
type Result struct {
	Elapsed   sim.Duration
	BytesMax  int64   // max per-GPU bytes sent to remote/peer GPUs
	AlgoBWGBs float64 // BytesMax / Elapsed
}

// run executes one all-to-all phase moving elemBytes per hidden element.
// The full n-by-n traffic matrix is computed once up front and drives both
// directions of the exchange: rank r puts along row mat[r] and waits along
// column mat[*][r], so a put issued toward r is always matched by a wait
// on r — including under asymmetric traffic (small or non-divisible token
// counts, skewed routing), where a rank's send set and receive set differ.
func (e *Engine) run(tokens int, elemBytes int64, launch *machine.Launch) (Result, error) {
	n := e.M.Env.TotalGPUs()
	mat := e.Cfg.TrafficMatrix(n, tokens, elemBytes)
	start := e.M.Engine.Now()
	var maxBytes int64
	for r, dests := range mat {
		var total int64
		for p, b := range dests {
			if p != r {
				total += b
			}
		}
		maxBytes = max(maxBytes, total)
	}
	e.waits = make([]int, n)
	e.mat = mat
	launch.Start()
	if err := e.M.Run(); err != nil {
		return Result{}, err
	}
	elapsed := e.M.Engine.Now() - start
	bw := 0.0
	if elapsed > 0 {
		bw = float64(maxBytes) / float64(elapsed)
	}
	return Result{Elapsed: elapsed, BytesMax: maxBytes, AlgoBWGBs: bw}, nil
}

// kernel is rank r's all-to-all over e.mat, the traffic matrix: it puts along
// row mat[r] and waits along column mat[*][r].
func (e *Engine) kernel(k *machine.Kernel, r int) {
	n, mat := len(e.mat), e.mat
	dests := mat[r]
	// Local experts: HBM pass.
	if dests[r] > 0 {
		k.LocalCopy(dests[r], 4)
	}
	switch e.mode {
	case TransportMSCCLPP:
		for p := 0; p < n; p++ {
			if p == r || dests[p] == 0 {
				continue
			}
			e.send[r][p].PutWithSignal(k, 0, 0, dests[p], 0, 1)
		}
		for p := 0; p < n; p++ {
			if p == r || mat[p][r] == 0 {
				continue
			}
			e.waits[r]++
			e.recv[r][p].Wait(k)
		}
	case TransportIBGDA:
		for p := 0; p < n; p++ {
			if p == r || dests[p] == 0 {
				continue
			}
			e.gdaPut(k, r, p, dests[p])
		}
		for p := 0; p < n; p++ {
			if p == r || mat[p][r] == 0 {
				continue
			}
			e.waits[r]++
			e.gdaExp[p][r]++
			k.Await(e.gdaSem[p][r], e.gdaExp[p][r], k.Model().SemWaitWake)
		}
	}
}

// Dispatch routes tokens to experts in FP8 (1 byte/element).
func (e *Engine) Dispatch(tokens int) (Result, error) {
	return e.run(tokens, 1, e.dispatch)
}

// Combine returns expert outputs to token owners in BF16 (2 bytes/element).
func (e *Engine) Combine(tokens int) (Result, error) {
	return e.run(tokens, 2, e.combine)
}

// Counters snapshots the all-to-all paths' resource counters: the DMA
// engines (intra-node puts) and RDMA NICs (cross-node puts) every
// dispatch/combine kernel occupied, plus the rest of the cluster fabric.
func (e *Engine) Counters() []sim.CounterGroup { return e.M.Counters() }

// Paper13Env returns the Figure 13 environment (two H100 nodes).
func Paper13Env() *topology.Env { return topology.H100(2) }
