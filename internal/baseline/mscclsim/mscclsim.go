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

// group is a rank subset with a directed conn between every ordered pair,
// each member's rotated peer order and each rank's index in the subset,
// all fixed at Prepare.
type group struct {
	conns [][]*twosided.Conn // [src][dst], global ranks
	peers [][]int            // each member's peers, rotated as collective.PeersOf
	idx   []int              // [rank] its position in the subset's rank list
}

// newGroup builds directed conns among every ordered pair in ranks.
func (l *Library) newGroup(ranks []int, cfg twosided.Config) *group {
	n := l.C.Ranks()
	g := &group{conns: make([][]*twosided.Conn, n), peers: make([][]int, n), idx: make([]int, n)}
	for i, a := range ranks {
		g.conns[a] = make([]*twosided.Conn, n)
		g.peers[a] = collective.PeersOf(ranks, a)
		g.idx[a] = i
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

// at is a buffer region of an all-pairs phase: for the peer at group
// index i it starts at off + i*stride (stride 0: the same region for every
// peer).
type at struct {
	buf         *mem.Buffer
	off, stride int64
}

// phase is one member's all-pairs exchange: a send leg to and a receive
// leg from every peer.
type phase struct{ sends, recvs []twosided.Leg }

// legs returns member r's phase moving n bytes per peer: to each peer p it
// sends from src's region for p, and it receives from p into dst's region
// for p, reducing when reduce is set.
func (g *group) legs(r int, n int64, src, dst at, reduce bool) phase {
	ph := phase{sends: make([]twosided.Leg, len(g.peers[r])), recvs: make([]twosided.Leg, len(g.peers[r]))}
	for i, p := range g.peers[r] {
		ph.sends[i] = twosided.Leg{Conn: g.conns[r][p], Buf: src.buf, Off: src.off + int64(g.idx[p])*src.stride, N: n}
		ph.recvs[i] = twosided.Leg{Conn: g.conns[p][r], Buf: dst.buf, Off: dst.off + int64(g.idx[p])*dst.stride, N: n, Reduce: reduce}
	}
	return ph
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
	phases := make([]phase, c.Ranks())
	for r := range phases {
		phases[r] = all.legs(r, size, at{in[r], 0, 0}, at{out[r], 0, 0}, true)
	}
	name := "msccl-AllPairs1P-LL"
	launch := c.M.Kernel(name, 1, func(k *machine.Kernel, r int) {
		k.CopyShard(out[r], 0, in[r], 0, size, 0, 1)
		twosided.Exchange(k, phases[r].sends, phases[r].recvs)
	})
	return collective.NewExec(name, launch.Start), nil
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
	phases := make([][][2]phase, nTB) // [block][rank]
	for b := range phases {
		rs := l.newGroup(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
		ag := l.newGroup(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
		off, ln := machine.Shard(slice, b, nTB)
		phases[b] = make([][2]phase, n)
		for r := range phases[b] {
			mySlice := int64(r)*slice + off
			phases[b][r] = [2]phase{
				// Phase 1: scatter slices; reduce arrivals into my slice.
				rs.legs(r, ln, at{in[r], off, slice}, at{out[r], mySlice, 0}, true),
				// Phase 2: broadcast my reduced slice; copy arrivals.
				ag.legs(r, ln, at{out[r], mySlice, 0}, at{out[r], off, slice}, false),
			}
		}
	}
	name := "msccl-AllPairs2P-" + proto.String()
	launch := c.M.Kernel(name, nTB, func(k *machine.Kernel, r int) {
		b := k.Block
		if _, ln := machine.Shard(slice, b, k.NumBlocks); ln == 0 {
			return
		}
		k.CopyShard(out[r], int64(r)*slice, in[r], int64(r)*slice, slice, b, k.NumBlocks)
		for _, ph := range phases[b][r] {
			twosided.Exchange(k, ph.sends, ph.recvs)
		}
	})
	return collective.NewExec(name, launch.Start), nil
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
	intra := make([]*group, nodes)
	intraAG := make([]*group, nodes)
	colRS := make([]*group, g)
	colAG := make([]*group, g)
	phases := make([][][4]phase, nTB) // [block][rank]
	for b := range phases {
		for node := 0; node < nodes; node++ {
			rs := c.NodeRanks(node)
			intra[node] = l.newGroup(rs, cfg)
			intraAG[node] = l.newGroup(rs, cfg)
		}
		for lidx := 0; lidx < g; lidx++ {
			rs := c.SameLocalRanks(lidx)
			colRS[lidx] = l.newGroup(rs, cfg)
			colAG[lidx] = l.newGroup(rs, cfg)
		}
		sOff, sLen := machine.Shard(sg, b, nTB)
		// Per-TB sub-slice shards (aligned so cross-node sub-slice
		// shards stay within the TB's region).
		mOff, mLen := machine.Shard(sgm, b, nTB)
		phases[b] = make([][4]phase, c.Ranks())
		for r := range phases[b] {
			node, lidx := r/g, r%g
			// r's slice lidx and its sub-slice of it, and the sub-slice
			// of slice lidx each cross peer owns.
			mySlice := at{out[r], int64(lidx)*sg + sOff, 0}
			mySub := at{out[r], int64(lidx)*sg + int64(node)*sgm + mOff, 0}
			peerSubs := at{out[r], int64(lidx)*sg + mOff, sgm}
			phases[b][r] = [4]phase{
				// Intra-node ReduceScatter of slice lidx.
				intra[node].legs(r, sLen, at{in[r], sOff, sg}, mySlice, true),
				// Cross-node exchange of sub-slices, all-pairs.
				colRS[lidx].legs(r, mLen, peerSubs, mySub, true),
				// Cross-node AllGather of finished sub-slices.
				colAG[lidx].legs(r, mLen, mySub, peerSubs, false),
				// Intra-node AllGather of slice lidx.
				intraAG[node].legs(r, sLen, mySlice, at{out[r], sOff, sg}, false),
			}
		}
	}
	name := "msccl-Hier-" + proto.String()
	launch := c.M.Kernel(name, nTB, func(k *machine.Kernel, r int) {
		b, lidx := k.Block, r%g
		if _, sLen := machine.Shard(sg, b, k.NumBlocks); sLen == 0 {
			return
		}
		k.CopyShard(out[r], int64(lidx)*sg, in[r], int64(lidx)*sg, sg, b, k.NumBlocks)
		for i, ph := range phases[b][r] {
			if i > 0 {
				// TB shards of the slice and of the sub-slice differ,
				// so phases must synchronize across thread blocks.
				k.GridBarrier()
			}
			twosided.Exchange(k, ph.sends, ph.recvs)
		}
	})
	return collective.NewExec(name, launch.Start), nil
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
	phases := make([]phase, c.Ranks())
	for r := range phases {
		phases[r] = all.legs(r, shard, at{in[r], 0, 0}, at{out[r], 0, shard}, false)
	}
	name := "msccl-AG-AllPairs-" + proto.String()
	launch := c.M.Kernel(name, 1, func(k *machine.Kernel, r int) {
		k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, 0, 1)
		twosided.Exchange(k, phases[r].sends, phases[r].recvs)
	})
	return collective.NewExec(name, launch.Start), nil
}
