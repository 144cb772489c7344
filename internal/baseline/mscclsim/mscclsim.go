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

// pairConns builds directed conns among every ordered pair in ranks.
func (l *Library) pairConns(ranks []int, cfg twosided.Config) map[int]map[int]*twosided.Conn {
	conns := make(map[int]map[int]*twosided.Conn)
	for _, a := range ranks {
		conns[a] = make(map[int]*twosided.Conn)
	}
	for _, a := range ranks {
		for _, b := range ranks {
			if a != b {
				conns[a][b] = twosided.NewConn(l.C.M, a, b, cfg)
			}
		}
	}
	return conns
}

// tbCount picks the per-collective thread-block (channel) parallelism.
func (l *Library) tbCount(bytesPerLeg int64) int {
	n := int(bytesPerLeg / (256 << 10))
	if n < 1 {
		n = 1
	}
	if n > l.Channels {
		n = l.Channels
	}
	if n > 8 {
		n = 8
	}
	return n
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
	n := c.Ranks()
	size := in[0].Size()
	ranks := collective.AllRanks(n)
	conns := l.pairConns(ranks, twosided.Config{Proto: twosided.ProtoLL, Chunk: 64 << 10, Slots: 16})
	name := "msccl-AllPairs1P-LL"
	launch := func() []*machine.KernelHandle {
		handles := make([]*machine.KernelHandle, n)
		for _, r := range ranks {
			r := r
			handles[r] = c.M.GPUs[r].Launch(name, 1, func(k *machine.Kernel) {
				k.LocalCopy(size, 1)
				in[r].CopyTo(out[r], 0, 0, size)
				var sends, recvs []xferSpec
				for _, p := range collective.PeersOf(ranks, r) {
					sends = append(sends, xferSpec{conns[r][p], in[r], 0, false})
					recvs = append(recvs, xferSpec{conns[p][r], out[r], 0, true})
				}
				runExchange(k, size, conns[r][collective.PeersOf(ranks, r)[0]].Chunk(), sends, recvs)
			})
		}
		return handles
	}
	return collective.NewExec(name, launch), nil
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
	nTB := l.tbCount(slice)
	connsRS := make([]map[int]map[int]*twosided.Conn, nTB)
	connsAG := make([]map[int]map[int]*twosided.Conn, nTB)
	for b := 0; b < nTB; b++ {
		connsRS[b] = l.pairConns(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
		connsAG[b] = l.pairConns(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
	}
	name := "msccl-AllPairs2P-" + proto.String()
	launch := func() []*machine.KernelHandle {
		handles := make([]*machine.KernelHandle, n)
		for _, r := range ranks {
			r := r
			handles[r] = c.M.GPUs[r].Launch(name, nTB, func(k *machine.Kernel) {
				b := k.Block
				off, ln := machine.Shard(slice, b, k.NumBlocks)
				if ln == 0 {
					return
				}
				mySlice := int64(r)*slice + off
				k.LocalCopy(ln, 1)
				in[r].CopyTo(out[r], mySlice, mySlice, ln)
				// Phase 1: scatter slices; reduce arrivals into my slice.
				var sends, recvs []xferSpec
				for _, p := range collective.PeersOf(ranks, r) {
					sends = append(sends, xferSpec{connsRS[b][r][p], in[r], int64(p)*slice + off, false})
					recvs = append(recvs, xferSpec{connsRS[b][p][r], out[r], mySlice, true})
				}
				runExchange(k, ln, chunk, sends, recvs)
				// Phase 2: broadcast my reduced slice; copy arrivals.
				sends, recvs = nil, nil
				for _, p := range collective.PeersOf(ranks, r) {
					sends = append(sends, xferSpec{connsAG[b][r][p], out[r], mySlice, false})
					recvs = append(recvs, xferSpec{connsAG[b][p][r], out[r], int64(p)*slice + off, false})
				}
				runExchange(k, ln, chunk, sends, recvs)
			})
		}
		return handles
	}
	return collective.NewExec(name, launch), nil
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
	n := c.Ranks()
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
	nTB := l.tbCount(sg)
	intra := make([][]map[int]map[int]*twosided.Conn, nTB)
	intraAG := make([][]map[int]map[int]*twosided.Conn, nTB)
	colRS := make([][]map[int]map[int]*twosided.Conn, nTB)
	colAG := make([][]map[int]map[int]*twosided.Conn, nTB)
	for b := 0; b < nTB; b++ {
		intra[b] = make([]map[int]map[int]*twosided.Conn, nodes)
		intraAG[b] = make([]map[int]map[int]*twosided.Conn, nodes)
		for node := 0; node < nodes; node++ {
			rs := c.NodeRanks(node)
			intra[b][node] = l.pairConns(rs, cfg)
			intraAG[b][node] = l.pairConns(rs, cfg)
		}
		colRS[b] = make([]map[int]map[int]*twosided.Conn, g)
		colAG[b] = make([]map[int]map[int]*twosided.Conn, g)
		for lidx := 0; lidx < g; lidx++ {
			rs := c.SameLocalRanks(lidx)
			colRS[b][lidx] = l.pairConns(rs, cfg)
			colAG[b][lidx] = l.pairConns(rs, cfg)
		}
	}
	name := "msccl-Hier-" + proto.String()
	launch := func() []*machine.KernelHandle {
		handles := make([]*machine.KernelHandle, n)
		for r := 0; r < n; r++ {
			r := r
			node, lidx := r/g, r%g
			handles[r] = c.M.GPUs[r].Launch(name, nTB, func(k *machine.Kernel) {
				b := k.Block
				sOff, sLen := machine.Shard(sg, b, k.NumBlocks)
				if sLen == 0 {
					return
				}
				// Per-TB sub-slice shards (aligned so cross-node sub-slice
				// shards stay within the TB's region).
				mOff, mLen := machine.Shard(sgm, b, k.NumBlocks)
				sliceOff := int64(lidx)*sg + sOff
				localPeers := collective.PeersOf(c.NodeRanks(node), r)
				crossPeers := collective.PeersOf(c.SameLocalRanks(lidx), r)
				k.LocalCopy(sLen, 1)
				in[r].CopyTo(out[r], sliceOff, sliceOff, sLen)
				// Intra-node ReduceScatter of slice lidx.
				var sends, recvs []xferSpec
				for _, p := range localPeers {
					sends = append(sends, xferSpec{intra[b][node][r][p], in[r], int64(p%g)*sg + sOff, false})
					recvs = append(recvs, xferSpec{intra[b][node][p][r], out[r], sliceOff, true})
				}
				runExchange(k, sLen, chunk, sends, recvs)
				// TB shards of the slice and of the sub-slice differ, so
				// phases must synchronize across thread blocks.
				k.GridBarrier()
				// Cross-node exchange of sub-slices, all-pairs.
				myOff := int64(lidx)*sg + int64(node)*sgm + mOff
				sends, recvs = nil, nil
				for _, p := range crossPeers {
					sends = append(sends, xferSpec{colRS[b][lidx][r][p], out[r],
						int64(lidx)*sg + int64(p/g)*sgm + mOff, false})
					recvs = append(recvs, xferSpec{colRS[b][lidx][p][r], out[r], myOff, true})
				}
				runExchange(k, mLen, chunk, sends, recvs)
				k.GridBarrier()
				// Cross-node AllGather of finished sub-slices.
				sends, recvs = nil, nil
				for _, p := range crossPeers {
					sends = append(sends, xferSpec{colAG[b][lidx][r][p], out[r], myOff, false})
					recvs = append(recvs, xferSpec{colAG[b][lidx][p][r], out[r],
						int64(lidx)*sg + int64(p/g)*sgm + mOff, false})
				}
				runExchange(k, mLen, chunk, sends, recvs)
				k.GridBarrier()
				// Intra-node AllGather of slice lidx.
				sends, recvs = nil, nil
				for _, p := range localPeers {
					sends = append(sends, xferSpec{intraAG[b][node][r][p], out[r], sliceOff, false})
					recvs = append(recvs, xferSpec{intraAG[b][node][p][r], out[r], int64(p%g)*sg + sOff, false})
				}
				runExchange(k, sLen, chunk, sends, recvs)
			})
		}
		return handles
	}
	return collective.NewExec(name, launch), nil
}

// PrepareAllGatherAllPairs is MSCCL's all-pairs AllGather.
func (l *Library) PrepareAllGatherAllPairs(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl AG: single-node only")
	}
	n := c.Ranks()
	shard := in[0].Size()
	ranks := collective.AllRanks(n)
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	conns := l.pairConns(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
	name := "msccl-AG-AllPairs-" + proto.String()
	launch := func() []*machine.KernelHandle {
		handles := make([]*machine.KernelHandle, n)
		for _, r := range ranks {
			r := r
			handles[r] = c.M.GPUs[r].Launch(name, 1, func(k *machine.Kernel) {
				k.LocalCopy(shard, 1)
				in[r].CopyTo(out[r], int64(r)*shard, 0, shard)
				var sends, recvs []xferSpec
				for _, p := range collective.PeersOf(ranks, r) {
					sends = append(sends, xferSpec{conns[r][p], in[r], 0, false})
					recvs = append(recvs, xferSpec{conns[p][r], out[r], int64(p) * shard, false})
				}
				runExchange(k, shard, chunk, sends, recvs)
			})
		}
		return handles
	}
	return collective.NewExec(name, launch), nil
}
