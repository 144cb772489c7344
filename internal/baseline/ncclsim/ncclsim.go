// Package ncclsim is the NCCL/RCCL-style baseline library (paper Sections
// 2.2-2.3): collectives built from synchronous two-sided send/recv over
// staging buffers (package twosided), with ring and tree/chain algorithms,
// Simple and LL protocols, and multiple channels (thread blocks) per
// collective. On AMD-style meshes the per-channel rings use different xGMI
// links (stride rings), like RCCL.
//
// The library deliberately reproduces the baseline's structural costs — the
// extra FIFO copy per hop, per-chunk rendezvous, one hardcoded transfer mode
// per link — rather than being slowed down artificially.
package ncclsim

import (
	"fmt"

	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// Library is one NCCL-like communicator.
type Library struct {
	C *collective.Comm
	// Channels is the number of parallel channels (thread blocks + rings);
	// NCCL_NCHANNELS. Default 12.
	Channels int
}

// simpleChunk is the Simple protocol's staging slot size
// (NCCL_BUFFSIZE/slots); the LL protocol uses 16 KiB slots.
const simpleChunk = 512 << 10

// New returns a library over c.
func New(c *collective.Comm, channels int) *Library {
	if channels <= 0 {
		channels = 12
	}
	return &Library{C: c, Channels: channels}
}

// chunkOf returns proto's staging slot size.
func chunkOf(proto twosided.Proto) int64 {
	if proto == twosided.ProtoLL {
		return 16 << 10
	}
	return simpleChunk
}

// ringNext returns the successor of rank r on channel b's ring. Single-node
// mesh topologies rotate through coprime strides so different channels use
// different xGMI links (RCCL-style). Multi-node rings rotate the intra-node
// order per channel so each channel's node-crossing edge uses a different
// NIC (NCCL builds one ring per NIC).
func (l *Library) ringNext(r, b int) int {
	n := l.C.Ranks()
	env := l.C.M.Env
	if env.Nodes == 1 && env.IntraMesh {
		strides := []int{1, 3, 5, 7}
		s := strides[b%len(strides)]
		g := env.GPUsPerNode
		return (r + s) % g
	}
	if env.Nodes == 1 {
		return (r + 1) % n
	}
	// Multi-node: within a node, visit locals b, b+1, ..., b+g-1 (mod g);
	// the last local of each node hands off to local b of the next node.
	g := env.GPUsPerNode
	node, local := r/g, r%g
	pos := (local - b%g + g) % g
	if pos < g-1 {
		return node*g + (b+pos+1)%g
	}
	return ((node+1)%env.Nodes)*g + b%g
}

// ring is one channel's ring, built at Prepare: order lists its ranks
// from rank 0 on, pos inverts it, and send[r] is r's conn to its successor.
type ring struct {
	order, pos []int
	send       []*twosided.Conn
}

// rings builds the rings of channels 0..nch-1. It panics when a channel's
// ringNext is not one cycle through all ranks.
func (l *Library) rings(nch int, proto twosided.Proto, chunk int64) []ring {
	n := l.C.Ranks()
	rs := make([]ring, nch)
	for b := range rs {
		g := ring{order: make([]int, n), pos: make([]int, n), send: make([]*twosided.Conn, n)}
		for i := range g.pos {
			g.pos[i] = -1
		}
		r := 0
		for i := 0; i < n; i++ {
			if g.pos[r] >= 0 {
				panic("ncclsim: broken ring")
			}
			g.order[i], g.pos[r] = r, i
			r = l.ringNext(r, b)
		}
		if r != 0 {
			panic("ncclsim: broken ring")
		}
		for r := range g.send {
			g.send[r] = twosided.NewConn(l.C.M, r, l.ringNext(r, b),
				twosided.Config{Proto: proto, Chunk: chunk})
		}
		rs[b] = g
	}
	return rs
}

// prev returns the rank s steps before r on the ring, 0 <= s <= n.
func (g ring) prev(r, s int) int {
	n := len(g.order)
	return g.order[(g.pos[r]-s+n)%n]
}

// PrepareAllReduceRing builds the classic ring AllReduce: a ReduceScatter
// pass followed by an AllGather pass, 2(N-1) synchronous hops per element,
// chunk-interleaved so neighbouring transfers pipeline.
func (l *Library) PrepareAllReduceRing(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	n := l.C.Ranks()
	if len(in) != n || len(out) != n {
		return nil, fmt.Errorf("ncclsim: need %d buffers", n)
	}
	size := in[0].Size()
	nch := min(l.Channels, int(size/4096)+1)
	rings := l.rings(nch, proto, chunkOf(proto))
	name := "nccl-Ring-" + proto.String()
	launch := l.C.M.Kernel(name, nch, func(k *machine.Kernel, r int) {
		b := k.Block
		g := rings[b]
		send, recv := g.send[r], g.send[g.prev(r, 1)]
		pOff, pSize := machine.Shard(size, b, nch)
		if pSize == 0 {
			return
		}
		// Working copy of this channel's part.
		k.CopyShard(out[r], 0, in[r], 0, size, b, nch)
		// Ring indices follow ring positions, not rank numbers, so
		// stride rings stay correct.
		pos := g.pos[r]
		slice := func(i int) (int64, int64) {
			o, ln := machine.Shard(pSize, i, n)
			return pOff + o, ln
		}
		// hop sends slice si and receives slice ri.
		hop := func(si, ri int, reduce bool) {
			sOff, sN := slice(si)
			rOff, rN := slice(ri)
			twosided.Exchange(k,
				[]twosided.Leg{{Conn: send, Buf: out[r], Off: sOff, N: sN}},
				[]twosided.Leg{{Conn: recv, Buf: out[r], Off: rOff, N: rN, Reduce: reduce}})
		}
		// ReduceScatter pass.
		for s := 0; s < n-1; s++ {
			hop((pos+n-s)%n, (pos+n-s-1)%n, true)
		}
		// AllGather pass: forward the owned slice around the ring.
		for s := 0; s < n-1; s++ {
			hop((pos+1+n-s)%n, (pos+n-s)%n, false)
		}
	})
	return collective.NewExec(name, launch.Start), nil
}

// PrepareAllReduceTree builds the latency-oriented chain/tree AllReduce used
// for small multi-node messages: chain-reduce within each node to the local
// leader, chain-reduce across node leaders, then broadcast back down both
// levels.
func (l *Library) PrepareAllReduceTree(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	n := c.Ranks()
	env := c.M.Env
	g, nodes := env.GPUsPerNode, env.Nodes
	size := in[0].Size()
	cfg := twosided.Config{Proto: proto, Chunk: chunkOf(proto)}
	// Reduce-phase conns (towards rank 0 of node 0) and broadcast-phase
	// conns (away from it).
	up := make([]*twosided.Conn, n)   // up[r]: r -> its reduce parent
	down := make([]*twosided.Conn, n) // down[r]: r's broadcast parent -> r
	for r := 0; r < n; r++ {
		node, local := r/g, r%g
		if local > 0 {
			up[r] = twosided.NewConn(c.M, r, r-1, cfg)
		} else if node > 0 {
			up[r] = twosided.NewConn(c.M, r, (node-1)*g, cfg)
		}
	}
	for r := 0; r < n; r++ {
		node, local := r/g, r%g
		if local > 0 {
			down[r] = twosided.NewConn(c.M, r-1, r, cfg)
		} else if node > 0 {
			down[r] = twosided.NewConn(c.M, (node-1)*g, r, cfg)
		}
	}
	name := "nccl-Tree-" + proto.String()
	launch := c.M.Kernel(name, 1, func(k *machine.Kernel, r int) {
		node, local := r/g, r%g
		k.CopyShard(out[r], 0, in[r], 0, size, 0, 1)
		// whole moves all of out[r] through one conn.
		whole := func(conn *twosided.Conn, reduce bool) []twosided.Leg {
			return []twosided.Leg{{Conn: conn, Buf: out[r], N: size, Reduce: reduce}}
		}
		// --- Reduce towards (0,0) ---
		if local < g-1 {
			twosided.Exchange(k, nil, whole(up[r+1], true))
		}
		if local == 0 && node < nodes-1 {
			twosided.Exchange(k, nil, whole(up[(node+1)*g], true))
		}
		if up[r] != nil {
			twosided.Exchange(k, whole(up[r], false), nil)
		}
		// --- Broadcast back ---
		if down[r] != nil {
			twosided.Exchange(k, nil, whole(down[r], false))
		}
		if local == 0 && node < nodes-1 {
			twosided.Exchange(k, whole(down[(node+1)*g], false), nil)
		}
		if local < g-1 {
			twosided.Exchange(k, whole(down[r+1], false), nil)
		}
	})
	return collective.NewExec(name, launch.Start), nil
}

// PrepareAllGatherRing builds the ring AllGather (NCCL's only AllGather
// algorithm): N-1 forwarding hops through staging buffers.
func (l *Library) PrepareAllGatherRing(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	n := l.C.Ranks()
	shard := in[0].Size()
	nch := min(l.Channels, int(shard/4096)+1)
	rings := l.rings(nch, proto, chunkOf(proto))
	name := "nccl-AG-Ring-" + proto.String()
	launch := l.C.M.Kernel(name, nch, func(k *machine.Kernel, r int) {
		b := k.Block
		g := rings[b]
		send, recv := g.send[r], g.send[g.prev(r, 1)]
		pOff, pSize := machine.Shard(shard, b, nch)
		if pSize == 0 {
			return
		}
		k.CopyShard(out[r], int64(r)*shard, in[r], 0, shard, b, nch)
		// Forward shards around the ring by ring position.
		for s := 0; s < n-1; s++ {
			sOff := int64(g.prev(r, s))*shard + pOff   // shard to send this step
			rOff := int64(g.prev(r, s+1))*shard + pOff // shard arriving this step
			twosided.Exchange(k,
				[]twosided.Leg{{Conn: send, Buf: out[r], Off: sOff, N: pSize}},
				[]twosided.Leg{{Conn: recv, Buf: out[r], Off: rOff, N: pSize}})
		}
	})
	return collective.NewExec(name, launch.Start), nil
}
