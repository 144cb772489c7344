// Package mscclsim is the MSCCL baseline library (paper Section 2.2):
// custom, topology-tuned communication algorithms — all-pairs and
// hierarchical patterns authored in the MSCCLang DSL — executed over NCCL's
// two-sided synchronous send/recv substrate. It captures the paper's gain
// breakdown: MSCCL beats NCCL through better algorithms, and MSCCL++ beats
// MSCCL through one-sided, zero-copy, asynchronous primitives.
package mscclsim

import (
	"fmt"

	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// Library is one MSCCL-like communicator.
type Library struct {
	C *collective.Comm
	// Channels bounds thread-block parallelism for bulk algorithms.
	Channels int
}

// New returns a library over c.
func New(c *collective.Comm, channels int) *Library {
	if channels <= 0 {
		channels = 12
	}
	return &Library{C: c, Channels: channels}
}

// group is a rank subset with a directed conn between every ordered pair
// and each member's rotated peer order, both fixed at Prepare.
type group struct {
	conns [][]*twosided.Conn // [src][dst], global ranks
	peers [][]int            // each member's peers, rotated as collective.PeersOf
}

// newGroup builds directed conns among every ordered pair in ranks.
func (l *Library) newGroup(ranks []int, cfg twosided.Config) *group {
	n := l.C.Ranks()
	g := &group{conns: make([][]*twosided.Conn, n), peers: make([][]int, n)}
	for _, a := range ranks {
		g.conns[a] = make([]*twosided.Conn, n)
		g.peers[a] = collective.PeersOf(ranks, a)
	}
	for _, a := range ranks {
		for _, b := range ranks {
			if a != b {
				g.conns[a][b] = twosided.NewConn(l.C.M, a, b, cfg)
			}
		}
	}
	return g
}

// xferSpec describes one leg of a chunk-interleaved all-pairs exchange.
type xferSpec struct {
	conn   *twosided.Conn
	buf    *mem.Buffer
	off    int64
	reduce bool // receive legs: reduce instead of copy
}

// runExchange interleaves sends and receives chunk by chunk so that slot
// backpressure never deadlocks (MSCCL executes send and recv legs on
// separate thread blocks; interleaving models the same progress guarantee).
// All legs cover `length` bytes.
func runExchange(k *machine.Kernel, length, chunk int64, sends, recvs []xferSpec) {
	for wo := int64(0); wo < length; wo += chunk {
		wn := length - wo
		if wn > chunk {
			wn = chunk
		}
		for _, s := range sends {
			s.conn.Send(k, s.buf, s.off+wo, wn)
		}
		for _, r := range recvs {
			if r.reduce {
				r.conn.RecvReduce(k, r.buf, r.off+wo, wn)
			} else {
				r.conn.RecvCopy(k, r.buf, r.off+wo, wn)
			}
		}
	}
}

// PrepareAllReduceAllPairs1P is MSCCL's one-phase all-pairs AllReduce for
// small messages: every rank LL-sends its whole input to every peer, which
// reduces all arrivals — the same algorithm as MSCCL++'s 1PA but over
// two-sided primitives with staging copies.
func (l *Library) PrepareAllReduceAllPairs1P(in, out []*mem.Buffer) (*collective.Exec, error) {
	c := l.C
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl 1P: single-node only")
	}
	size := in[0].Size()
	const chunk = 64 << 10
	all := l.newGroup(collective.AllRanks(c.Ranks()), twosided.Config{Proto: twosided.ProtoLL, Chunk: chunk, Slots: 16})
	name := "msccl-AllPairs1P-LL"
	return collective.NewExec(name, func() {
		c.M.LaunchAll(name, 1, func(k *machine.Kernel, r int) {
			k.CopyShard(out[r], 0, in[r], 0, size, 0, 1)
			var sends, recvs []xferSpec
			for _, p := range all.peers[r] {
				sends = append(sends, xferSpec{all.conns[r][p], in[r], 0, false})
				recvs = append(recvs, xferSpec{all.conns[p][r], out[r], 0, true})
			}
			runExchange(k, size, chunk, sends, recvs)
		})
	}), nil
}

// PrepareAllReduceAllPairs2P is MSCCL's two-phase all-pairs AllReduce
// (ReduceScatter + AllGather) for medium messages.
func (l *Library) PrepareAllReduceAllPairs2P(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl 2P: single-node only")
	}
	n := c.Ranks()
	size := in[0].Size()
	slice := size / int64(n)
	ranks := collective.AllRanks(n)
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	// One thread block (channel) per 256 KiB of each leg, at most 8.
	nTB := max(1, min(int(slice/(256<<10)), l.Channels, 8))
	rs := make([]*group, nTB)
	ag := make([]*group, nTB)
	for b := 0; b < nTB; b++ {
		rs[b] = l.newGroup(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
		ag[b] = l.newGroup(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
	}
	name := "msccl-AllPairs2P-" + proto.String()
	return collective.NewExec(name, func() {
		c.M.LaunchAll(name, nTB, func(k *machine.Kernel, r int) {
			b := k.Block
			off, ln := machine.Shard(slice, b, k.NumBlocks)
			if ln == 0 {
				return
			}
			mySlice := int64(r)*slice + off
			k.CopyShard(out[r], int64(r)*slice, in[r], int64(r)*slice, slice, b, k.NumBlocks)
			// Phase 1: scatter slices; reduce arrivals into my slice.
			var sends, recvs []xferSpec
			for _, p := range rs[b].peers[r] {
				sends = append(sends, xferSpec{rs[b].conns[r][p], in[r], int64(p)*slice + off, false})
				recvs = append(recvs, xferSpec{rs[b].conns[p][r], out[r], mySlice, true})
			}
			runExchange(k, ln, chunk, sends, recvs)
			// Phase 2: broadcast my reduced slice; copy arrivals.
			sends, recvs = nil, nil
			for _, p := range ag[b].peers[r] {
				sends = append(sends, xferSpec{ag[b].conns[r][p], out[r], mySlice, false})
				recvs = append(recvs, xferSpec{ag[b].conns[p][r], out[r], int64(p)*slice + off, false})
			}
			runExchange(k, ln, chunk, sends, recvs)
		})
	}), nil
}

// PrepareAllReduceHier is MSCCL's hierarchical (2PH-style) AllReduce for
// multi-node messages: intra-node all-pairs ReduceScatter, cross-node
// all-pairs exchange among same-local ranks, intra-node AllGather.
func (l *Library) PrepareAllReduceHier(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	env := c.M.Env
	if env.Nodes < 2 {
		return nil, fmt.Errorf("msccl hier: multi-node only")
	}
	g, nodes := env.GPUsPerNode, env.Nodes
	size := in[0].Size()
	sg := size / int64(g)
	sgm := sg / int64(nodes)
	if sgm == 0 || sgm%4 != 0 {
		return nil, fmt.Errorf("msccl hier: size %d too small", size)
	}
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	cfg := twosided.Config{Proto: proto, Chunk: chunk, Slots: 16}
	nTB := max(1, min(int(sg/(256<<10)), l.Channels, 8))
	intra := make([][]*group, nTB)
	intraAG := make([][]*group, nTB)
	colRS := make([][]*group, nTB)
	colAG := make([][]*group, nTB)
	for b := 0; b < nTB; b++ {
		intra[b] = make([]*group, nodes)
		intraAG[b] = make([]*group, nodes)
		for node := 0; node < nodes; node++ {
			rs := c.NodeRanks(node)
			intra[b][node] = l.newGroup(rs, cfg)
			intraAG[b][node] = l.newGroup(rs, cfg)
		}
		colRS[b] = make([]*group, g)
		colAG[b] = make([]*group, g)
		for lidx := 0; lidx < g; lidx++ {
			rs := c.SameLocalRanks(lidx)
			colRS[b][lidx] = l.newGroup(rs, cfg)
			colAG[b][lidx] = l.newGroup(rs, cfg)
		}
	}
	name := "msccl-Hier-" + proto.String()
	return collective.NewExec(name, func() {
		c.M.LaunchAll(name, nTB, func(k *machine.Kernel, r int) {
			b := k.Block
			node, lidx := r/g, r%g
			sOff, sLen := machine.Shard(sg, b, k.NumBlocks)
			if sLen == 0 {
				return
			}
			// Per-TB sub-slice shards (aligned so cross-node sub-slice
			// shards stay within the TB's region).
			mOff, mLen := machine.Shard(sgm, b, k.NumBlocks)
			sliceOff := int64(lidx)*sg + sOff
			local, localAG := intra[b][node], intraAG[b][node]
			cross, crossAG := colRS[b][lidx], colAG[b][lidx]
			k.CopyShard(out[r], int64(lidx)*sg, in[r], int64(lidx)*sg, sg, b, k.NumBlocks)
			// Intra-node ReduceScatter of slice lidx.
			var sends, recvs []xferSpec
			for _, p := range local.peers[r] {
				sends = append(sends, xferSpec{local.conns[r][p], in[r], int64(p%g)*sg + sOff, false})
				recvs = append(recvs, xferSpec{local.conns[p][r], out[r], sliceOff, true})
			}
			runExchange(k, sLen, chunk, sends, recvs)
			// TB shards of the slice and of the sub-slice differ, so
			// phases must synchronize across thread blocks.
			k.GridBarrier()
			// Cross-node exchange of sub-slices, all-pairs.
			myOff := int64(lidx)*sg + int64(node)*sgm + mOff
			sends, recvs = nil, nil
			for _, p := range cross.peers[r] {
				sends = append(sends, xferSpec{cross.conns[r][p], out[r],
					int64(lidx)*sg + int64(p/g)*sgm + mOff, false})
				recvs = append(recvs, xferSpec{cross.conns[p][r], out[r], myOff, true})
			}
			runExchange(k, mLen, chunk, sends, recvs)
			k.GridBarrier()
			// Cross-node AllGather of finished sub-slices.
			sends, recvs = nil, nil
			for _, p := range crossAG.peers[r] {
				sends = append(sends, xferSpec{crossAG.conns[r][p], out[r], myOff, false})
				recvs = append(recvs, xferSpec{crossAG.conns[p][r], out[r],
					int64(lidx)*sg + int64(p/g)*sgm + mOff, false})
			}
			runExchange(k, mLen, chunk, sends, recvs)
			k.GridBarrier()
			// Intra-node AllGather of slice lidx.
			sends, recvs = nil, nil
			for _, p := range localAG.peers[r] {
				sends = append(sends, xferSpec{localAG.conns[r][p], out[r], sliceOff, false})
				recvs = append(recvs, xferSpec{localAG.conns[p][r], out[r], int64(p%g)*sg + sOff, false})
			}
			runExchange(k, sLen, chunk, sends, recvs)
		})
	}), nil
}

// PrepareAllGatherAllPairs is MSCCL's all-pairs AllGather.
func (l *Library) PrepareAllGatherAllPairs(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl AG: single-node only")
	}
	shard := in[0].Size()
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	all := l.newGroup(collective.AllRanks(c.Ranks()), twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
	name := "msccl-AG-AllPairs-" + proto.String()
	return collective.NewExec(name, func() {
		c.M.LaunchAll(name, 1, func(k *machine.Kernel, r int) {
			k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, 0, 1)
			var sends, recvs []xferSpec
			for _, p := range all.peers[r] {
				sends = append(sends, xferSpec{all.conns[r][p], in[r], 0, false})
				recvs = append(recvs, xferSpec{all.conns[p][r], out[r], int64(p) * shard, false})
			}
			runExchange(k, shard, chunk, sends, recvs)
		})
	}), nil
}
