// Package dsl implements the MSCCL++ DSL (paper Section 5): a builder with
// a global view of all thread blocks on all ranks, in which users describe
// custom collective communication algorithms over PortChannel /
// MemoryChannel / SwitchChannel abstractions. Lowering performs chunk-level
// data-dependence analysis (inserting thread-block synchronizations),
// redundant-synchronization elimination and operation fusion, and emits an
// execution plan (package plan) interpreted by the DSL Executor (package
// executor).
//
// The paper's DSL is Python-embedded; this reproduction embeds the same
// programming model in Go (documented substitution in DESIGN.md).
package dsl

import (
	"fmt"

	"mscclpp/internal/plan"
)

// Program is a DSL program under construction.
type Program struct {
	Name       string
	Collective string
	Ranks      int
	NumTB      int
	InSize     int64
	OutSize    int64

	channels []plan.Channel
	scratch  []plan.Scratch
	streams  [][][]plan.Op // [rank][tb]
	maxFlag  uint64
	errs     []error
}

// NewProgram starts a program for a collective over ranks ranks with numTB
// thread blocks per rank, for concrete input/output buffer sizes (the DSL
// lowers for specific sizes, as in the paper).
func NewProgram(name, collective string, ranks, numTB int, inSize, outSize int64) *Program {
	p := &Program{
		Name: name, Collective: collective,
		Ranks: ranks, NumTB: numTB,
		InSize: inSize, OutSize: outSize,
	}
	p.streams = make([][][]plan.Op, ranks)
	for r := range p.streams {
		p.streams[r] = make([][]plan.Op, numTB)
	}
	return p
}

func (p *Program) errf(format string, args ...interface{}) {
	p.errs = append(p.errs, fmt.Errorf(format, args...))
}

func (p *Program) emit(rank, tb int, op plan.Op) {
	if rank < 0 || rank >= p.Ranks {
		p.errf("dsl: op %s on invalid rank %d", op.Code, rank)
		return
	}
	if tb < 0 || tb >= p.NumTB {
		p.errf("dsl: op %s on invalid tb %d (rank %d)", op.Code, tb, rank)
		return
	}
	p.streams[rank][tb] = append(p.streams[rank][tb], op)
}

// TBGroup names a contiguous group of thread blocks cooperating on one
// operation (Figure 5's ThreadBlockGroup).
type TBGroup struct {
	First int
	Size  int
}

// group normalizes an optional TBGroup argument.
func group(tb int, g []TBGroup) []struct{ tb, rank, size int } {
	if len(g) == 0 || g[0].Size <= 1 {
		return []struct{ tb, rank, size int }{{tb, 0, 1}}
	}
	gg := g[0]
	out := make([]struct{ tb, rank, size int }, gg.Size)
	for i := 0; i < gg.Size; i++ {
		out[i] = struct{ tb, rank, size int }{gg.First + i, i, gg.Size}
	}
	return out
}

// Buffer is a named buffer on one rank in the global view.
type Buffer struct {
	p    *Program
	ref  plan.BufRef
	size int64
}

// Input returns rank's collective input buffer.
func (p *Program) Input(rank int) *Buffer {
	return &Buffer{p: p, ref: plan.BufRef{Kind: plan.BufInput, Rank: rank}, size: p.InSize}
}

// Output returns rank's collective output buffer.
func (p *Program) Output(rank int) *Buffer {
	return &Buffer{p: p, ref: plan.BufRef{Kind: plan.BufOutput, Rank: rank}, size: p.OutSize}
}

// ScratchBuffer declares a scratch buffer of size bytes on rank.
func (p *Program) ScratchBuffer(rank int, size int64) *Buffer {
	idx := 0
	for _, s := range p.scratch {
		if s.Rank == rank {
			idx++
		}
	}
	p.scratch = append(p.scratch, plan.Scratch{Rank: rank, Index: idx, Size: size})
	return &Buffer{p: p, ref: plan.BufRef{Kind: plan.BufScratch, Rank: rank, Index: idx}, size: size}
}

// Rank returns the buffer's owning rank.
func (b *Buffer) Rank() int { return b.ref.Rank }

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Chunk selects the byte range [off, off+size).
func (b *Buffer) Chunk(off, size int64) Chunk {
	if off < 0 || size < 0 || off+size > b.size {
		b.p.errf("dsl: chunk [%d,%d) out of buffer (size %d)", off, off+size, b.size)
	}
	return Chunk{b: b, off: off, size: size}
}

// Whole selects the entire buffer.
func (b *Buffer) Whole() Chunk { return Chunk{b: b, off: 0, size: b.size} }

// Chunk is a byte range of a buffer (specified, as in the paper, as slices
// of Buffer).
type Chunk struct {
	b    *Buffer
	off  int64
	size int64
}

// Rank returns the chunk's owning rank.
func (c Chunk) Rank() int { return c.b.ref.Rank }

// Size returns the chunk length.
func (c Chunk) Size() int64 { return c.size }

func (c Chunk) pc() plan.Chunk {
	return plan.Chunk{Buf: c.b.ref, Off: c.off, Size: c.size}
}

// Copy emits a local copy dst <- src on the chunks' rank (both chunks must
// be local to that rank).
func (c Chunk) Copy(src Chunk, tb int, g ...TBGroup) {
	p := c.b.p
	if c.Rank() != src.Rank() {
		p.errf("dsl: local copy across ranks %d and %d", c.Rank(), src.Rank())
		return
	}
	if c.size != src.size {
		p.errf("dsl: local copy size mismatch %d vs %d", c.size, src.size)
		return
	}
	for _, m := range group(tb, g) {
		p.emit(c.Rank(), m.tb, plan.Op{Code: plan.OpLocalCopy, Dst: c.pc(), Src: src.pc(),
			GroupRank: m.rank, GroupSize: m.size})
	}
}

// Reduce emits a local accumulate dst += src on the chunks' rank.
func (c Chunk) Reduce(src Chunk, tb int, g ...TBGroup) {
	p := c.b.p
	if c.Rank() != src.Rank() {
		p.errf("dsl: local reduce across ranks %d and %d", c.Rank(), src.Rank())
		return
	}
	if c.size != src.size {
		p.errf("dsl: local reduce size mismatch %d vs %d", c.size, src.size)
		return
	}
	for _, m := range group(tb, g) {
		p.emit(c.Rank(), m.tb, plan.Op{Code: plan.OpLocalReduce, Dst: c.pc(), Src: src.pc(),
			GroupRank: m.rank, GroupSize: m.size})
	}
}

// channelBase carries the shared directional-channel state.
type channelBase struct {
	p       *Program
	id      int
	srcRank int
	dstRank int
}

func (p *Program) addChannel(t plan.ChannelType, srcRank, dstRank int, srcBuf, dstBuf *Buffer) channelBase {
	if srcRank == dstRank || srcRank < 0 || dstRank < 0 || srcRank >= p.Ranks || dstRank >= p.Ranks {
		p.errf("dsl: channel ranks (%d,%d)", srcRank, dstRank)
	}
	if srcBuf.Rank() != srcRank || dstBuf.Rank() != dstRank {
		p.errf("dsl: channel buffers on ranks (%d,%d), want (%d,%d)",
			srcBuf.Rank(), dstBuf.Rank(), srcRank, dstRank)
	}
	id := len(p.channels)
	p.channels = append(p.channels, plan.Channel{
		ID: id, Type: t, SrcRank: srcRank, DstRank: dstRank,
		SrcBuf: srcBuf.ref, DstBuf: dstBuf.ref,
	})
	return channelBase{p: p, id: id, srcRank: srcRank, dstRank: dstRank}
}

func (cb channelBase) put(code plan.OpCode, dst, src Chunk, tb int, flag uint64, g []TBGroup) {
	p := cb.p
	if dst.Rank() != cb.dstRank || src.Rank() != cb.srcRank {
		p.errf("dsl: put chunks on ranks (%d->%d), channel is (%d->%d)",
			src.Rank(), dst.Rank(), cb.srcRank, cb.dstRank)
		return
	}
	if dst.size != src.size {
		p.errf("dsl: put size mismatch %d vs %d", dst.size, src.size)
		return
	}
	if flag > p.maxFlag {
		p.maxFlag = flag
	}
	for _, m := range group(tb, g) {
		p.emit(cb.srcRank, m.tb, plan.Op{Code: code, Channel: cb.id,
			Dst: dst.pc(), Src: src.pc(), Flag: flag,
			GroupRank: m.rank, GroupSize: m.size})
	}
}

// Signal emits an ordered semaphore increment from the source rank.
func (cb channelBase) Signal(tb int) {
	cb.p.emit(cb.srcRank, tb, plan.Op{Code: plan.OpSignal, Channel: cb.id})
}

// Wait emits a blocking semaphore wait on the destination rank.
func (cb channelBase) Wait(tb int) {
	cb.p.emit(cb.dstRank, tb, plan.Op{Code: plan.OpWait, Channel: cb.id})
}

// Flush emits a sender-side completion flush.
func (cb channelBase) Flush(tb int) {
	cb.p.emit(cb.srcRank, tb, plan.Op{Code: plan.OpFlush, Channel: cb.id})
}

// MemChannel is a directional memory-mapped channel in the global view.
type MemChannel struct{ channelBase }

// MemoryChannel declares a MemoryChannel whose puts stream srcBuf (on
// srcRank) into dstBuf (on dstRank).
func (p *Program) MemoryChannel(srcRank, dstRank int, srcBuf, dstBuf *Buffer) *MemChannel {
	return &MemChannel{p.addChannel(plan.ChanMemory, srcRank, dstRank, srcBuf, dstBuf)}
}

// Put emits an HB-protocol one-sided write.
func (ch *MemChannel) Put(dst, src Chunk, tb int, g ...TBGroup) {
	ch.put(plan.OpPut, dst, src, tb, 0, g)
}

// PutPackets emits an LL-protocol write tagged with flag.
func (ch *MemChannel) PutPackets(dst, src Chunk, tb int, flag uint64, g ...TBGroup) {
	if flag == 0 {
		ch.p.errf("dsl: put_packets flag must be nonzero")
	}
	ch.put(plan.OpPutPackets, dst, src, tb, flag, g)
}

// AwaitPackets emits the receiver-side LL wait for target cumulative bytes
// tagged with flag; runs on the destination rank.
func (ch *MemChannel) AwaitPackets(tb int, flag uint64, target int64) {
	ch.p.emit(ch.dstRank, tb, plan.Op{Code: plan.OpAwaitPackets, Channel: ch.id,
		Flag: flag, Target: uint64(target)})
}

// Reduce emits a read-reduce executed on the SOURCE rank: dst (local to
// srcRank) accumulates the remote chunk src (on dstRank).
func (ch *MemChannel) Reduce(dst, src Chunk, tb int, g ...TBGroup) {
	p := ch.p
	if dst.Rank() != ch.srcRank || src.Rank() != ch.dstRank {
		p.errf("dsl: chan reduce chunks on ranks (%d,%d), channel is (%d->%d)",
			dst.Rank(), src.Rank(), ch.srcRank, ch.dstRank)
		return
	}
	for _, m := range group(tb, g) {
		p.emit(ch.srcRank, m.tb, plan.Op{Code: plan.OpChanReduce, Channel: ch.id,
			Dst: dst.pc(), Src: src.pc(), GroupRank: m.rank, GroupSize: m.size})
	}
}

// PortChannel is a directional port-mapped channel in the global view.
type PortChannel struct{ channelBase }

// PortChannel declares a PortChannel whose puts DMA srcBuf (on srcRank)
// into dstBuf (on dstRank).
func (p *Program) PortChannel(srcRank, dstRank int, srcBuf, dstBuf *Buffer) *PortChannel {
	return &PortChannel{p.addChannel(plan.ChanPort, srcRank, dstRank, srcBuf, dstBuf)}
}

// Put emits an asynchronous DMA/RDMA put request. A proxy request carries
// offsets only, so dst and src must be chunks of the channel's bound
// buffers.
func (ch *PortChannel) Put(dst, src Chunk, tb int, g ...TBGroup) {
	if bound := ch.p.channels[ch.id]; dst.b.ref != bound.DstBuf || src.b.ref != bound.SrcBuf {
		ch.p.errf("dsl: port channel %d puts only between its bound buffers", ch.id)
		return
	}
	ch.put(plan.OpPut, dst, src, tb, 0, g)
}

// SwitchChannel is a multimem channel over a rank group in the global view.
type SwitchChannel struct {
	p    *Program
	id   int
	bufs []*Buffer // one member buffer per rank
}

// SwitchChannelOver declares a switch channel spanning ranks over bufs
// (bufs[i] on ranks[i]).
func (p *Program) SwitchChannelOver(ranks []int, bufs []*Buffer) *SwitchChannel {
	if len(ranks) != len(bufs) || len(ranks) < 2 {
		p.errf("dsl: switch channel over %d ranks / %d buffers", len(ranks), len(bufs))
	}
	refs := make([]plan.BufRef, len(bufs))
	for i, b := range bufs {
		if i < len(ranks) && b.Rank() != ranks[i] {
			p.errf("dsl: switch buffer %d on rank %d, want %d", i, b.Rank(), ranks[i])
		}
		refs[i] = b.ref
	}
	id := len(p.channels)
	p.channels = append(p.channels, plan.Channel{
		ID: id, Type: plan.ChanSwitch, Ranks: append([]int(nil), ranks...), Bufs: refs,
	})
	return &SwitchChannel{p: p, id: id, bufs: bufs}
}

// member returns the group-side chunk [off, off+size) of rank's member
// buffer, so the plan bounds-checks the multimem range like any other.
func (ch *SwitchChannel) member(rank int, off, size int64) plan.Chunk {
	for _, b := range ch.bufs {
		if b.Rank() == rank {
			return b.Chunk(off, size).pc()
		}
	}
	ch.p.errf("dsl: rank %d is not a member of switch channel %d", rank, ch.id)
	return plan.Chunk{Off: off, Size: size}
}

// Reduce emits a multimem ld_reduce on rank: dst (local chunk) receives the
// switch-aggregated sums of the group's buffers over [srcOff, srcOff+size).
func (ch *SwitchChannel) Reduce(rank int, dst Chunk, srcOff, size int64, tb int, g ...TBGroup) {
	for _, m := range group(tb, g) {
		ch.p.emit(rank, m.tb, plan.Op{Code: plan.OpSwitchReduce, Channel: ch.id,
			Dst: dst.pc(), Src: ch.member(rank, srcOff, size),
			GroupRank: m.rank, GroupSize: m.size})
	}
}

// Broadcast emits a multimem st on rank: src (local chunk) is multicast to
// every group member at dstOff.
func (ch *SwitchChannel) Broadcast(rank int, dstOff int64, src Chunk, tb int, g ...TBGroup) {
	for _, m := range group(tb, g) {
		ch.p.emit(rank, m.tb, plan.Op{Code: plan.OpSwitchBcast, Channel: ch.id,
			Src: src.pc(), Dst: ch.member(rank, dstOff, src.size),
			GroupRank: m.rank, GroupSize: m.size})
	}
}

// DeviceSync emits a device-wide (grid) barrier on rank: every thread block
// of the rank arrives before any proceeds.
func (p *Program) DeviceSync(rank int) {
	for tb := 0; tb < p.NumTB; tb++ {
		p.emit(rank, tb, plan.Op{Code: plan.OpGridBarrier})
	}
}
