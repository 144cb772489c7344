package plan

import "testing"

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
		ok       bool
	}{
		{"port put of bound buffers", 0, boundPut, channels, true},
		{"memory put of other buffers", 0, Op{Code: OpPut, Channel: memCh, Dst: chunk(BufOutput, 1), Src: chunk(BufOutput, 0)}, channels, true},
		{"port signal", 0, Op{Code: OpSignal, Channel: portCh}, channels, true},
		{"local op without channels", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)}, nil, true},
		{"port put of other buffers", 0, otherPut, channels, false},
		{"port put_with_signal of other buffers", 0, Op{Code: OpPutWithSignal, Channel: portCh, Dst: otherPut.Dst, Src: otherPut.Src}, channels, false},
		{"reduce_put on port", 0, Op{Code: OpReducePut, Channel: portCh, Dst: boundPut.Dst, Src: boundPut.Src, Data: chunk(BufInput, 0)}, channels, false},
		{"put_packets on port", 0, Op{Code: OpPutPackets, Channel: portCh, Dst: boundPut.Dst, Src: boundPut.Src, Flag: 1}, channels, false},
		{"await_packets on port", 0, Op{Code: OpAwaitPackets, Channel: portCh, Flag: 1, Target: 256}, channels, false},
		{"chan_reduce on port", 0, Op{Code: OpChanReduce, Channel: portCh, Dst: chunk(BufOutput, 0), Src: chunk(BufOutput, 1)}, channels, false},
		{"switch_reduce on memory", 0, Op{Code: OpSwitchReduce, Channel: memCh, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)}, channels, false},
		{"switch_broadcast on port", 0, Op{Code: OpSwitchBcast, Channel: portCh, Dst: chunk(BufInput, 0), Src: chunk(BufOutput, 0)}, channels, false},
		{"put on switch", 0, Op{Code: OpPut, Channel: swCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0)}, channels, false},
		{"switch member out of range", 0, Op{Code: OpLocalCopy, Dst: chunk(BufOutput, 0), Src: chunk(BufInput, 0)},
			[]Channel{{ID: 0, Type: ChanSwitch, Ranks: []int{0, 2}, Bufs: []BufRef{buf(BufInput, 0), buf(BufInput, 2)}}}, false},
		{"wait on destination", 1, Op{Code: OpWait, Channel: memCh}, channels, true},
		{"await_packets on destination", 1, Op{Code: OpAwaitPackets, Channel: memCh, Flag: 1, Target: 256}, channels, true},
		{"switch_reduce on member", 1, Op{Code: OpSwitchReduce, Channel: swCh, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 1)}, channels, true},
		{"signal on destination", 1, Op{Code: OpSignal, Channel: memCh}, channels, false},
		{"put on destination", 1, Op{Code: OpPut, Channel: memCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0)}, channels, false},
		{"put_with_signal on destination", 1, Op{Code: OpPutWithSignal, Channel: portCh, Dst: boundPut.Dst, Src: boundPut.Src}, channels, false},
		{"put_packets on destination", 1, Op{Code: OpPutPackets, Channel: memCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0), Flag: 1}, channels, false},
		{"flush on destination", 1, Op{Code: OpFlush, Channel: portCh}, channels, false},
		{"chan_reduce on destination", 1, Op{Code: OpChanReduce, Channel: memCh, Dst: chunk(BufOutput, 1), Src: chunk(BufInput, 0)}, channels, false},
		{"reduce_put on destination", 1, Op{Code: OpReducePut, Channel: memCh, Dst: chunk(BufInput, 1), Src: chunk(BufInput, 0), Data: chunk(BufOutput, 0)}, channels, false},
		{"wait on source", 0, Op{Code: OpWait, Channel: portCh}, channels, false},
		{"await_packets on source", 0, Op{Code: OpAwaitPackets, Channel: memCh, Flag: 1, Target: 256}, channels, false},
		{"switch_broadcast on non-member", 1, Op{Code: OpSwitchBcast, Dst: chunk(BufInput, 0), Src: chunk(BufOutput, 1)},
			[]Channel{{ID: 0, Type: ChanSwitch, Ranks: []int{0}, Bufs: []BufRef{buf(BufInput, 0)}}}, false},
	}
	for _, c := range cases {
		p := &Plan{Name: c.name, Ranks: 2, NumTB: 1, InSize: 1024, OutSize: 1024, Channels: c.channels,
			Programs: [][][]Op{{nil}, {nil}}}
		p.Programs[c.rank][0] = []Op{c.op}
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
