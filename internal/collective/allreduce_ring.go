package collective

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce2PR is the two-phase ring AllReduce (paper §6.3 and Figure 6):
// a pipelined ring ReduceScatter whose local reduction overlaps the DMA-copy
// of the next half-chunk, followed by a ring AllGather over the same ring.
// Unlike NCCL, the ring runs over PortChannel (DMA engines) even within a
// node, freeing the SMs during transfers; it delivers the best intra-node
// throughput at very large message sizes.
type AllReduce2PR struct {
	// UseMemoryChannel switches the transport to thread-copy MemoryChannel
	// (for the PortChannel-vs-MemoryChannel ablation, paper §7.1).
	UseMemoryChannel bool
}

// Name implements Algorithm.
func (a *AllReduce2PR) Name() string {
	if a.UseMemoryChannel {
		return "mscclpp-2PR-Memory"
	}
	return "mscclpp-2PR-Port"
}

// Prepare implements Algorithm.
func (a *AllReduce2PR) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := validateAllReduceBufs(c, a, oneNode, in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	if n < 2 {
		return nil, fmt.Errorf("%s: need at least 2 ranks", a.Name())
	}
	chunk := size / int64(n)
	half := chunk / 2
	if half%4 != 0 {
		return nil, fmt.Errorf("%s: half-chunk %d not 4-byte aligned", a.Name(), half)
	}
	// Scratch receives in-flight chunks during ReduceScatter.
	scr := c.alloc("2pr.scr", size)
	// Ring edges r -> r+1 on the chosen transport: the ReduceScatter ring
	// puts out into the successor's scratch, the AllGather ring into its out.
	pair := func(dst []*mem.Buffer) func(x, y int) (core.Channel, core.Channel) {
		return func(x, y int) (core.Channel, core.Channel) {
			if a.UseMemoryChannel {
				return c.C.NewMemoryChannelPairEx(x, y, out[x], dst[y], out[y], dst[x])
			}
			return c.C.NewPortChannelPairEx(x, y, out[x], dst[y], out[y], dst[x])
		}
	}
	rsSend, rsRecv := newRing(n, pair(scr))
	agSend, agRecv := newRing(n, pair(out))
	nTB := threadBlocks(size/(1<<20), 4, 16)
	// putSig issues a signalled transfer on the chosen transport: the
	// PortChannel path enqueues asynchronously from block 0 (the GPU stays
	// free to reduce — the Figure 6 overlap); the MemoryChannel path copies
	// with all thread blocks and signals after a grid barrier. Both paths
	// keep per-block barrier counts identical.
	putSig := func(k *machine.Kernel, ch core.Channel, off, sz int64) {
		if a.UseMemoryChannel {
			ch.Put(k, off, off, sz, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 {
				ch.Signal(k)
			}
		} else if k.Block == 0 {
			ch.Put(k, off, off, sz, 0, 1)
			ch.Signal(k)
		}
	}
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		send, recv := rsSend[r], rsRecv[r]
		// Working copy: out starts as input.
		k.CopyShard(out[r], 0, in[r], 0, size, k.Block, k.NumBlocks)
		k.GridBarrier()
		// --- Phase 1: ring ReduceScatter, half-chunk pipelined ---
		// Step s sends chunk (r-s) and receives chunk (r-s-1); the
		// received chunk is reduced in halves, the first half's
		// reduction overlapping the second half's transfer.
		for s := 0; s < n-1; s++ {
			cs := int64((r+n-s)%n) * chunk   // chunk to send
			cr := int64((r+n-s-1)%n) * chunk // chunk arriving
			putSig(k, send, cs, half)
			putSig(k, send, cs+half, chunk-half)
			if k.Block == 0 {
				recv.Wait(k) // first half of incoming chunk
			}
			k.GridBarrier()
			// Reduce first half while second half is in flight.
			k.ReduceShard(out[r], cr, scr[r], cr, half, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 {
				recv.Wait(k) // second half
			}
			k.GridBarrier()
			k.ReduceShard(out[r], cr+half, scr[r], cr+half, chunk-half, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 && !a.UseMemoryChannel {
				send.Flush(k)
			}
		}
		// Rank r now owns chunk (r+1)%n fully reduced.
		// --- Phase 2: ring AllGather, zero-copy into out ---
		aSend, aRecv := agSend[r], agRecv[r]
		for s := 0; s < n-1; s++ {
			cs := int64((r+1+n-s)%n) * chunk // chunk to forward
			putSig(k, aSend, cs, chunk)
			if k.Block == 0 {
				aRecv.Wait(k)
			}
			k.GridBarrier()
		}
		if k.Block == 0 && !a.UseMemoryChannel {
			aSend.Flush(k)
		}
		k.GridBarrier()
	})
	return NewExec(a.Name(), launch.Start), nil
}
