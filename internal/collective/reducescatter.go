package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// ReduceScatterAllPairsLL scatters with the LL protocol: every rank
// packet-puts slice p of its input to rank p, which reduces arrivals.
type ReduceScatterAllPairsLL struct{}

// Name implements Algorithm.
func (a *ReduceScatterAllPairsLL) Name() string { return "mscclpp-RS-AllPairs-LL" }

// Prepare implements Algorithm.
func (a *ReduceScatterAllPairsLL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	slice, err := validateShardBufs(c, a, oneNode, out, in)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	scratch := c.alloc("rsll.scratch", slice*int64(n))
	m := newMesh(c, ranks, in, scratch)
	nTB := threadBlocks(slice/(16<<10)+1, 1, 4)
	// flag is the current invocation's packet flag; every invocation advances it.
	var flag uint64
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		llAllPairs(k, m, r, scratch, region{in[r], 0, slice}, region{out[r], 0, 0}, slice, flag, true)
	})
	return NewExec(a.Name(), func() { flag++; launch.Start() }), nil
}

// ReduceScatterAllPairsHB scatters by pulling: every rank's thread groups
// read-reduce its slice from all peers' inputs concurrently, with no
// synchronization at all (inputs are stable during the collective).
type ReduceScatterAllPairsHB struct{}

// Name implements Algorithm.
func (a *ReduceScatterAllPairsHB) Name() string { return "mscclpp-RS-AllPairs-HB" }

// Prepare implements Algorithm.
func (a *ReduceScatterAllPairsHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	slice, err := validateShardBufs(c, a, oneNode, out, in)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	ranks := AllRanks(n)
	m := newMesh(c, ranks, in, in)
	nTB := threadBlocks(slice/(128<<10), 4, 24)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		k.CopyShard(out[r], 0, in[r], int64(r)*slice, slice, k.Block, k.NumBlocks)
		for _, p := range m.peers[r] {
			m.at(r, p).ReduceBuf(k, out[r], 0, in[p], int64(r)*slice,
				slice, k.Block, k.NumBlocks)
		}
	})
	return NewExec(a.Name(), launch.Start), nil
}

// ReduceScatterRing is the pipelined ring ReduceScatter of paper Figure 6,
// with half-chunk reduction overlapped with the next half's DMA transfer.
// Output convention differs from the AllReduce-internal ring: out[r] gets
// slice r.
type ReduceScatterRing struct{}

// Name implements Algorithm.
func (a *ReduceScatterRing) Name() string { return "mscclpp-RS-Ring-Port" }

// Prepare implements Algorithm.
func (a *ReduceScatterRing) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	slice, err := validateShardBufs(c, a, oneNode, out, in)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	if n < 2 {
		return nil, fmt.Errorf("%s: need at least 2 ranks", a.Name())
	}
	half := slice / 2
	if half%4 != 0 {
		return nil, fmt.Errorf("%s: half-slice %d not aligned", a.Name(), half)
	}
	// work[r] accumulates (copy of input); scr receives in-flight chunks.
	work := c.alloc("rsring.work", slice*int64(n))
	scr := c.alloc("rsring.scr", slice*int64(n))
	sends, recvs := newRing(n, portPair(c, work, scr))
	nTB := threadBlocks(4, 4, 4)
	launch := c.M.Kernel(a.Name(), nTB, func(k *machine.Kernel, r int) {
		k.CopyShard(work[r], 0, in[r], 0, slice*int64(n), k.Block, k.NumBlocks)
		k.GridBarrier()
		send, recv := sends[r], recvs[r]
		// Ring steps: after n-1 steps rank r owns chunk (r+1)%n; the
		// ring is oriented so that one final hop is avoided by
		// defining ownership accordingly, then the owned chunk is
		// copied to out.
		for s := 0; s < n-1; s++ {
			cs := int64((r+n-s)%n) * slice
			cr := int64((r+n-s-1)%n) * slice
			if k.Block == 0 {
				send.Put(k, cs, cs, half, 0, 1)
				send.Signal(k)
				send.Put(k, cs+half, cs+half, slice-half, 0, 1)
				send.Signal(k)
				recv.Wait(k)
			}
			k.GridBarrier()
			k.ReduceShard(work[r], cr, scr[r], cr, half, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 {
				recv.Wait(k)
			}
			k.GridBarrier()
			k.ReduceShard(work[r], cr+half, scr[r], cr+half, slice-half, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 {
				send.Flush(k)
			}
		}
		// Rank r owns chunk (r+1)%n. The API promises slice r in
		// out[r], so rank (r-1) holds slice r... each rank therefore
		// forwards its owned chunk to the owner-by-convention.
		owned := int64((r+1)%n) * slice
		k.GridBarrier()
		if k.Block == 0 {
			// One extra hop delivers the owned chunk to its
			// conventional owner (the next rank in the ring).
			send.Put(k, owned, owned, slice, 0, 1)
			send.Signal(k)
			recv.Wait(k)
			send.Flush(k)
		}
		k.GridBarrier()
		// My slice arrived in scr; publish to out.
		k.CopyShard(out[r], 0, scr[r], int64(r)*slice, slice, k.Block, k.NumBlocks)
	})
	return NewExec(a.Name(), launch.Start), nil
}
