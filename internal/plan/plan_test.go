package plan

import (
	"strings"
	"testing"
)

// TestValidateChannelOps checks that an op runs only on a channel type that
// has its primitive, that a port op names only the channel's bound buffers
// (a proxy request carries offsets, so other buffers would silently move
// the bound ones), that switch members are ranks of the plan, and that a
// channel op runs on the rank owning its end: waits on the destination,
// switch ops on a member, every other op on the source.
func TestValidateChannelOps(t *testing.T) {
	buf := func(k BufKind, r int) BufRef { return BufRef{Kind: k, Rank: r} }
	chunk := func(k BufKind, r int) Chunk { return Chunk{Buf: buf(k, r), Size: 256} }
	const memCh, portCh, swCh = 0, 1, 2
	channels := []Channel{
		{ID: memCh, Type: ChanMemory, SrcRank: 0, DstRank: 1, SrcBuf: buf(BufInput, 0), DstBuf: buf(BufInput, 1)},
		{ID: portCh, Type: ChanPort, SrcRank: 0, DstRank: 1, SrcBuf: buf(BufOutput, 0), DstBuf: buf(BufOutput, 1)},
		{ID: swCh, Type: ChanSwitch, Ranks: []int{0, 1}, Bufs: []BufRef{buf(BufInput, 0), buf(BufInput, 1)}},
	}
	boundPut := Op{Code: OpPut, Channel: portCh, Dst: chunk(BufOutput, 1), Src: chunk(BufOutput, 0)}
	otherPut := Op{Code: OpPut, Channel: portCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0)}
	cases := []struct {
		name     string
		rank     int // the rank whose stream runs op
		op       Op
		channels []Channel
		want     string // a substring of the error, "" if the plan is valid
	}{
		{"port put of bound buffers", 0, boundPut, channels, ""},
		{"memory put of other buffers", 0, Op{Code: OpPut, Channel: memCh, Dst: chunk(BufOutput, 1), Src: chunk(BufOutput, 0)}, channels, ""},
		{"port signal", 0, Op{Code: OpSignal, Channel: portCh}, channels, ""},
		{"local op without channels", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)}, nil, ""},
		{"port put of other buffers", 0, otherPut, channels, "names buffers other than its bound output->output"},
		{"port put_with_signal of other buffers", 0, Op{Code: OpPutWithSignal, Channel: portCh, Dst: otherPut.Dst, Src: otherPut.Src}, channels, "names buffers other than its bound output->output"},
		{"reduce_put on port", 0, Op{Code: OpReducePut, Channel: portCh, Dst: boundPut.Dst, Src: boundPut.Src, Data: chunk(BufInput, 0)}, channels, "reduce_put on port channel 1"},
		{"put_packets on port", 0, Op{Code: OpPutPackets, Channel: portCh, Dst: boundPut.Dst, Src: boundPut.Src, Flag: 1}, channels, "put_packets on port channel 1"},
		{"await_packets on port", 0, Op{Code: OpAwaitPackets, Channel: portCh, Flag: 1, Target: 256}, channels, "await_packets on port channel 1"},
		{"chan_reduce on port", 0, Op{Code: OpChanReduce, Channel: portCh, Dst: chunk(BufOutput, 0), Src: chunk(BufOutput, 1)}, channels, "chan_reduce on port channel 1"},
		{"switch_reduce on memory", 0, Op{Code: OpSwitchReduce, Channel: memCh, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)}, channels, "switch_reduce on memory channel 0"},
		{"switch_broadcast on port", 0, Op{Code: OpSwitchBcast, Channel: portCh, Dst: chunk(BufInput, 0), Src: chunk(BufOutput, 0)}, channels, "switch_broadcast on port channel 1"},
		{"put on switch", 0, Op{Code: OpPut, Channel: swCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0)}, channels, "put on switch channel 2"},
		{"switch member out of range", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)},
			[]Channel{{ID: 0, Type: ChanSwitch, Ranks: []int{0, 3}, Bufs: []BufRef{buf(BufInput, 0), buf(BufInput, 3)}}}, "input buffer on rank 3 of 3"},
		{"wait on destination", 1, Op{Code: OpWait, Channel: memCh}, channels, ""},
		{"await_packets on destination", 1, Op{Code: OpAwaitPackets, Channel: memCh, Flag: 1, Target: 256}, channels, ""},
		{"switch_reduce on member", 1, Op{Code: OpSwitchReduce, Channel: swCh, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 1)}, channels, ""},
		{"signal on destination", 1, Op{Code: OpSignal, Channel: memCh}, channels, "not its source rank 0"},
		{"put on destination", 1, Op{Code: OpPut, Channel: memCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0)}, channels, "not its source rank 0"},
		{"put_with_signal on destination", 1, Op{Code: OpPutWithSignal, Channel: portCh, Dst: boundPut.Dst, Src: boundPut.Src}, channels, "not its source rank 0"},
		{"put_packets on destination", 1, Op{Code: OpPutPackets, Channel: memCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0), Flag: 1}, channels, "not its source rank 0"},
		{"flush on destination", 1, Op{Code: OpFlush, Channel: portCh}, channels, "not its source rank 0"},
		{"chan_reduce on destination", 1, Op{Code: OpChanReduce, Channel: memCh, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 0)}, channels, "not its source rank 0"},
		{"reduce_put on destination", 1, Op{Code: OpReducePut, Channel: memCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0), Data: chunk(BufOutput, 0)}, channels, "not its source rank 0"},
		{"wait on source", 0, Op{Code: OpWait, Channel: portCh}, channels, "not its destination rank 1"},
		{"await_packets on source", 0, Op{Code: OpAwaitPackets, Channel: memCh, Flag: 1, Target: 256}, channels, "not its destination rank 1"},
		{"switch_broadcast on non-member", 1, Op{Code: OpSwitchBcast, Dst: chunk(BufInput, 1), Src: chunk(BufOutput, 1)},
			[]Channel{{ID: 0, Type: ChanSwitch, Ranks: []int{0, 2}, Bufs: []BufRef{buf(BufInput, 0), buf(BufInput, 2)}}}, "non-member rank 1"},
	}
	for _, c := range cases {
		p := &Plan{Name: c.name, Ranks: 3, NumTB: 1, InSize: 1024, OutSize: 1024, Channels: c.channels,
			Programs: [][][]Op{{nil}, {nil}, {nil}}}
		p.Programs[c.rank][0] = []Op{c.op}
		if err := p.Validate(); (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestValidateReferences checks that every buffer a plan references is a
// declared buffer on a rank of the plan, that a channel's buffers live on
// its ends, and that every op is known, reaches its operands from the rank
// that runs it and names a valid thread-block group shard. Each rejected
// row is a plan that used to panic or misbehave in the executor.
func TestValidateReferences(t *testing.T) {
	buf := func(k BufKind, r int) BufRef { return BufRef{Kind: k, Rank: r} }
	chunk := func(k BufKind, r int) Chunk { return Chunk{Buf: buf(k, r), Size: 256} }
	scratch := func(r, index int) BufRef { return BufRef{Kind: BufScratch, Rank: r, Index: index} }
	mem := func(src, dst BufRef) []Channel {
		return []Channel{{ID: 0, Type: ChanMemory, SrcRank: 0, DstRank: 1, SrcBuf: src, DstBuf: dst}}
	}
	sw := func(ranks []int, bufs ...BufRef) []Channel {
		return []Channel{{ID: 0, Type: ChanSwitch, Ranks: ranks, Bufs: bufs}}
	}
	bound := mem(buf(BufInput, 0), scratch(1, 0))
	copy0 := Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)}
	put := func(dst, src Chunk) Op { return Op{Code: OpPut, Dst: dst, Src: src} }
	group := func(rank, size int) Op { g := copy0; g.GroupRank, g.GroupSize = rank, size; return g }
	cases := []struct {
		name     string
		rank     int // the rank whose stream runs op
		op       Op
		channels []Channel
		want     string // a substring of the error, "" if the plan is valid
	}{
		{"declared scratch channel", 0, copy0, bound, ""},
		{"put into declared scratch", 0, put(Chunk{Buf: scratch(1, 0), Size: 256}, chunk(BufInput, 0)), bound, ""},
		{"switch channel over two members", 0, copy0, sw([]int{0, 1}, buf(BufOutput, 0), buf(BufOutput, 1)), ""},
		{"group shard 1 of 2", 0, group(1, 2), nil, ""},
		// Buffer references.
		{"input chunk on rank 7", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 7)}, nil, "input buffer on rank 7 of 2"},
		{"output chunk on rank -1", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, -1), Src: chunk(BufInput, 0)}, nil, "output buffer on rank -1 of 2"},
		{"channel bound to rank 5's input", 0, copy0, mem(buf(BufInput, 5), buf(BufInput, 1)), "input buffer on rank 5 of 2"},
		{"channel source buffer off its source rank", 0, copy0, mem(buf(BufInput, 1), buf(BufInput, 1)), "input buffer on rank 1, want rank 0"},
		{"channel destination buffer off its destination rank", 0, copy0, mem(buf(BufInput, 0), buf(BufOutput, 0)), "output buffer on rank 0, want rank 1"},
		{"channel bound to undeclared source scratch", 0, copy0, mem(scratch(0, 0), buf(BufInput, 1)), "undeclared scratch 0 on rank 0"},
		{"channel bound to undeclared destination scratch", 0, copy0, mem(buf(BufInput, 0), scratch(1, 3)), "undeclared scratch 3 on rank 1"},
		{"switch channel with one member", 0, copy0, sw([]int{0}, buf(BufOutput, 0)), "over 1 ranks / 1 buffers"},
		{"switch channel with fewer buffers than ranks", 0, copy0, sw([]int{0, 1}, buf(BufOutput, 0)), "over 2 ranks / 1 buffers"},
		{"switch buffer off its member rank", 0, copy0, sw([]int{0, 1}, buf(BufOutput, 1), buf(BufOutput, 0)), "output buffer on rank 1, want rank 0"},
		// Ops.
		{"unknown op code", 0, Op{Code: "teleport"}, nil, "unknown op"},
		{"local_copy writing another rank's output", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 0)}, nil, "output buffer on rank 1, want rank 0"},
		{"local_reduce reading another rank's input", 0, Op{Code: OpLocalReduce, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 1)}, nil, "input buffer on rank 1, want rank 0"},
		{"put reading the destination rank", 0, put(chunk(BufInput, 1), chunk(BufInput, 1)), bound, "input buffer on rank 1, want rank 0"},
		{"put writing the source rank", 0, put(chunk(BufOutput, 0), chunk(BufInput, 0)), bound, "output buffer on rank 0, want rank 1"},
		{"put_packets writing the source rank", 0, Op{Code: OpPutPackets, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0), Flag: 1}, bound, "output buffer on rank 0, want rank 1"},
		{"reduce_put data on the destination rank", 0, Op{Code: OpReducePut, Dst: chunk(BufOutput, 1), Src: chunk(BufOutput, 0), Data: chunk(BufInput, 1)}, bound, "input buffer on rank 1, want rank 0"},
		{"local_copy into a smaller chunk", 0, Op{Code: OpLocalCopy, Dst: Chunk{Buf: buf(BufOutput, 0), Off: 768, Size: 256}, Src: Chunk{Buf: buf(BufInput, 0), Size: 1024}}, nil, "operand sizes differ"},
		{"reduce_put data shorter than src", 0, Op{Code: OpReducePut, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 0), Data: Chunk{Buf: buf(BufOutput, 0), Size: 128}}, bound, "operand sizes differ"},
		{"chan_reduce in put direction", 0, Op{Code: OpChanReduce, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 0)}, bound, "output buffer on rank 1, want rank 0"},
		{"negative group size", 0, group(0, -1), nil, "group rank 0 of size -1"},
		{"group rank past group size", 0, group(2, 2), nil, "group rank 2 of size 2"},
		{"negative group rank", 0, group(-1, 2), nil, "group rank -1 of size 2"},
		{"group rank 1 without a group", 0, group(1, 0), nil, "group rank 1 of size 0"},
	}
	for _, c := range cases {
		p := &Plan{Name: c.name, Ranks: 2, NumTB: 1, InSize: 1024, OutSize: 1024, Channels: c.channels,
			Scratch: []Scratch{{Rank: 1, Index: 0, Size: 1024}}, Programs: [][][]Op{{nil}, {nil}}}
		p.Programs[c.rank][0] = []Op{c.op}
		if err := p.Validate(); (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}
