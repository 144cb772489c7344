// Package plan defines the execution-plan IR that MSCCL++ DSL programs
// lower to (paper §5.3): a JSON-serializable description of channels,
// scratch buffers, semaphores and the per-thread-block operation streams
// that the DSL Executor interprets.
package plan

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// OpCode enumerates executable operations.
type OpCode string

// Operation codes. Channel ops reference Channels[op.Channel]; local ops
// run on the thread block's own GPU.
const (
	OpPut           OpCode = "put"
	OpPutPackets    OpCode = "put_packets"
	OpPutWithSignal OpCode = "put_with_signal" // fused by lowering
	OpReducePut     OpCode = "reduce_put"      // fused by lowering
	OpSignal        OpCode = "signal"
	OpWait          OpCode = "wait"
	OpFlush         OpCode = "flush"
	OpAwaitPackets  OpCode = "await_packets"
	OpChanReduce    OpCode = "chan_reduce" // read remote, accumulate local
	OpLocalCopy     OpCode = "local_copy"
	OpLocalReduce   OpCode = "local_reduce"
	OpTBSync        OpCode = "tb_sync"      // inserted by dependence analysis
	OpGridBarrier   OpCode = "grid_barrier" // device-wide barrier
	OpSwitchReduce  OpCode = "switch_reduce"
	OpSwitchBcast   OpCode = "switch_broadcast"
)

// BufKind names the three buffer classes a plan references.
type BufKind string

// Buffer classes.
const (
	BufInput   BufKind = "input"
	BufOutput  BufKind = "output"
	BufScratch BufKind = "scratch"
)

// BufRef identifies a buffer on a specific rank.
type BufRef struct {
	Kind  BufKind `json:"kind"`
	Rank  int     `json:"rank"`
	Index int     `json:"index,omitempty"` // scratch buffer index on that rank
}

// Chunk is a byte range of a buffer.
type Chunk struct {
	Buf  BufRef `json:"buf"`
	Off  int64  `json:"off"`
	Size int64  `json:"size"`
}

// ChannelType matches the Primitive API channel kinds.
type ChannelType string

// Channel types.
const (
	ChanMemory ChannelType = "memory"
	ChanPort   ChannelType = "port"
	ChanSwitch ChannelType = "switch"
)

// Channel describes one directional DSL channel: puts flow SrcRank->DstRank
// reading SrcBuf and writing DstBuf; signal runs on the source rank and wait
// on the destination rank. Switch channels instead span Ranks over Bufs.
type Channel struct {
	ID      int         `json:"id"`
	Type    ChannelType `json:"type"`
	SrcRank int         `json:"src_rank"`
	DstRank int         `json:"dst_rank"`
	SrcBuf  BufRef      `json:"src_buf"`
	DstBuf  BufRef      `json:"dst_buf"`
	// Switch channels only:
	Ranks []int    `json:"ranks,omitempty"`
	Bufs  []BufRef `json:"bufs,omitempty"`
}

// Op is one interpreted operation.
type Op struct {
	Code    OpCode `json:"code"`
	Channel int    `json:"channel,omitempty"`
	Dst     Chunk  `json:"dst,omitempty"`
	Src     Chunk  `json:"src,omitempty"`
	Data    Chunk  `json:"data,omitempty"` // second operand of reduce_put
	Flag    uint64 `json:"flag,omitempty"`
	Target  uint64 `json:"target,omitempty"` // await_packets byte target
	// Thread-block-group sharding: this op moves the GroupRank-th of
	// GroupSize shards (GroupSize 0/1 means the whole range).
	GroupRank int `json:"group_rank,omitempty"`
	GroupSize int `json:"group_size,omitempty"`
}

// Scratch declares a scratch buffer to allocate on a rank.
type Scratch struct {
	Rank  int   `json:"rank"`
	Index int   `json:"index"`
	Size  int64 `json:"size"`
}

// Plan is a lowered DSL program for concrete sizes and rank counts.
type Plan struct {
	Name       string    `json:"name"`
	Collective string    `json:"collective"`
	Ranks      int       `json:"ranks"`
	NumTB      int       `json:"num_tb"` // thread blocks per rank
	InSize     int64     `json:"in_size"`
	OutSize    int64     `json:"out_size"`
	MaxFlag    uint64    `json:"max_flag"` // highest LL flag used (for re-issue)
	Channels   []Channel `json:"channels"`
	Scratch    []Scratch `json:"scratch"`
	// Programs[rank][tb] is the op stream of one thread block.
	Programs [][][]Op `json:"programs"`
}

// Marshal renders the plan as indented JSON.
func (p *Plan) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Unmarshal parses a JSON plan.
func Unmarshal(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate performs structural checks: every buffer reference names a
// declared buffer on a rank of the plan, every channel's buffers live on its
// ends, and every op is known and reaches its channel end and its
// equal-sized operands from the rank that runs it.
func (p *Plan) Validate() error {
	if p.Ranks < 1 || p.NumTB < 1 {
		return fmt.Errorf("plan %s: ranks=%d numTB=%d", p.Name, p.Ranks, p.NumTB)
	}
	if len(p.Programs) != p.Ranks {
		return fmt.Errorf("plan %s: %d rank programs for %d ranks", p.Name, len(p.Programs), p.Ranks)
	}
	for r, tbs := range p.Programs {
		if len(tbs) != p.NumTB {
			return fmt.Errorf("plan %s: rank %d has %d TB programs, want %d", p.Name, r, len(tbs), p.NumTB)
		}
	}
	scratchSize := map[[2]int]int64{}
	for _, s := range p.Scratch {
		if s.Rank < 0 || s.Rank >= p.Ranks || s.Size <= 0 {
			return fmt.Errorf("plan %s: bad scratch %+v", p.Name, s)
		}
		scratchSize[[2]int{s.Rank, s.Index}] = s.Size
	}
	bufSize := func(b BufRef) (int64, error) {
		if b.Rank < 0 || b.Rank >= p.Ranks {
			return 0, fmt.Errorf("%s buffer on rank %d of %d", b.Kind, b.Rank, p.Ranks)
		}
		switch b.Kind {
		case BufInput:
			return p.InSize, nil
		case BufOutput:
			return p.OutSize, nil
		case BufScratch:
			sz, ok := scratchSize[[2]int{b.Rank, b.Index}]
			if !ok {
				return 0, fmt.Errorf("undeclared scratch %d on rank %d", b.Index, b.Rank)
			}
			return sz, nil
		}
		return 0, fmt.Errorf("unknown buffer kind %q", b.Kind)
	}
	// checkChunk reports a chunk out of its buffer's bounds and, for rank
	// >= 0, a chunk of a buffer not on rank. With rank < 0 an absent
	// operand (zero offset and size) passes.
	checkChunk := func(c Chunk, rank int) error {
		if rank < 0 && c.Size == 0 && c.Off == 0 {
			return nil
		}
		sz, err := bufSize(c.Buf)
		if err != nil {
			return err
		}
		if rank >= 0 && c.Buf.Rank != rank {
			return fmt.Errorf("%s buffer on rank %d, want rank %d", c.Buf.Kind, c.Buf.Rank, rank)
		}
		if c.Off < 0 || c.Size < 0 || c.Off+c.Size > sz {
			return fmt.Errorf("chunk [%d,%d) out of %s buffer (size %d)", c.Off, c.Off+c.Size, c.Buf.Kind, sz)
		}
		return nil
	}
	for ci, ch := range p.Channels {
		if ch.ID != ci {
			return fmt.Errorf("plan %s: channel %d has id %d", p.Name, ci, ch.ID)
		}
		bufs, ranks := []BufRef{ch.SrcBuf, ch.DstBuf}, []int{ch.SrcRank, ch.DstRank}
		if ch.Type == ChanSwitch {
			bufs, ranks = ch.Bufs, ch.Ranks
			if len(ranks) < 2 || len(ranks) != len(bufs) {
				return fmt.Errorf("plan %s: switch channel %d over %d ranks / %d buffers", p.Name, ci, len(ranks), len(bufs))
			}
		} else if ch.SrcRank == ch.DstRank || ch.SrcRank < 0 || ch.DstRank < 0 ||
			ch.SrcRank >= p.Ranks || ch.DstRank >= p.Ranks {
			return fmt.Errorf("plan %s: channel %d ranks (%d,%d)", p.Name, ci, ch.SrcRank, ch.DstRank)
		}
		for i, b := range bufs {
			if err := checkChunk(Chunk{Buf: b}, ranks[i]); err != nil {
				return fmt.Errorf("plan %s: channel %d: %w", p.Name, ci, err)
			}
		}
	}
	checkOp := func(op Op, rank int) error {
		types, known := chanTypes(op.Code)
		switch {
		case !known:
			return fmt.Errorf("unknown op")
		case op.GroupSize < 0 || op.GroupRank < 0 || op.GroupRank >= max(op.GroupSize, 1):
			return fmt.Errorf("group rank %d of size %d", op.GroupRank, op.GroupSize)
		case op.Channel < 0 || (op.Channel >= len(p.Channels) && types != nil):
			return fmt.Errorf("channel %d out of range", op.Channel)
		}
		var ch Channel
		if types != nil {
			ch = p.Channels[op.Channel]
			if err := checkChannelOp(op, ch, types, rank); err != nil {
				return err
			}
		}
		dst, src, data := operandRanks(op, ch, rank)
		if dst >= 0 && (op.Dst.Size != op.Src.Size || data >= 0 && op.Data.Size != op.Src.Size) {
			return fmt.Errorf("operand sizes differ: dst %d, src %d, data %d", op.Dst.Size, op.Src.Size, op.Data.Size)
		}
		return cmp.Or(checkChunk(op.Dst, dst), checkChunk(op.Src, src), checkChunk(op.Data, data))
	}
	for r, tbs := range p.Programs {
		for tb, ops := range tbs {
			for oi, op := range ops {
				if err := checkOp(op, r); err != nil {
					return fmt.Errorf("plan %s: rank %d tb %d op %d (%s): %w", p.Name, r, tb, oi, op.Code, err)
				}
			}
		}
	}
	return nil
}

// Channel types each kind of channel op may run on.
var (
	pointToPoint = []ChannelType{ChanMemory, ChanPort}
	memoryOnly   = []ChannelType{ChanMemory}
	switchOnly   = []ChannelType{ChanSwitch}
)

// chanTypes returns the channel types op code c may run on, nil when c
// uses no channel, and known = false for an unknown code. Packets, channel
// reduces and reduce_put are MemoryChannel primitives; multimem ops need a
// switch channel.
func chanTypes(c OpCode) (types []ChannelType, known bool) {
	switch c {
	case OpPut, OpPutWithSignal, OpSignal, OpWait, OpFlush:
		return pointToPoint, true
	case OpPutPackets, OpAwaitPackets, OpChanReduce, OpReducePut:
		return memoryOnly, true
	case OpSwitchReduce, OpSwitchBcast:
		return switchOnly, true
	case OpLocalCopy, OpLocalReduce, OpTBSync, OpGridBarrier:
		return nil, true
	}
	return nil, false
}

// operandRanks returns the ranks op's dst, src and data operands must live
// on when rank runs it over channel ch, or -1 for an operand op does not
// use; an op with operands moves src's size through each of them. Local and
// multimem ops touch only their own rank's buffers. Puts read on the
// channel's source rank and write on its destination rank; chan_reduce
// reads the destination rank's buffer into the source rank's.
func operandRanks(op Op, ch Channel, rank int) (dst, src, data int) {
	switch op.Code {
	case OpLocalCopy, OpLocalReduce, OpSwitchReduce, OpSwitchBcast:
		return rank, rank, -1
	case OpPut, OpPutWithSignal, OpPutPackets:
		return ch.DstRank, ch.SrcRank, -1
	case OpReducePut:
		return ch.DstRank, ch.SrcRank, ch.SrcRank
	case OpChanReduce:
		return ch.SrcRank, ch.DstRank, -1
	}
	return -1, -1, -1
}

// checkChannelOp reports an op on a channel of the wrong type, an op in
// the stream of a rank that does not own its end of the channel, and a
// port op naming buffers other than the channel's bound ones: a proxy
// request carries offsets only, so it would move the bound buffers' bytes.
// Waits run on the destination rank, switch ops on a member, and every
// other channel op on the source rank.
func checkChannelOp(op Op, ch Channel, types []ChannelType, rank int) error {
	if !slices.Contains(types, ch.Type) {
		return fmt.Errorf("%s on %s channel %d", op.Code, ch.Type, ch.ID)
	}
	switch {
	case ch.Type == ChanSwitch:
		if !slices.Contains(ch.Ranks, rank) {
			return fmt.Errorf("%s on switch channel %d from non-member rank %d", op.Code, ch.ID, rank)
		}
	case op.Code == OpWait || op.Code == OpAwaitPackets:
		if rank != ch.DstRank {
			return fmt.Errorf("%s on channel %d from rank %d, not its destination rank %d", op.Code, ch.ID, rank, ch.DstRank)
		}
	case rank != ch.SrcRank:
		return fmt.Errorf("%s on channel %d from rank %d, not its source rank %d", op.Code, ch.ID, rank, ch.SrcRank)
	}
	if ch.Type == ChanPort && (op.Code == OpPut || op.Code == OpPutWithSignal) &&
		(op.Src.Buf != ch.SrcBuf || op.Dst.Buf != ch.DstBuf) {
		return fmt.Errorf("%s on port channel %d names buffers other than its bound %s->%s",
			op.Code, ch.ID, ch.SrcBuf.Kind, ch.DstBuf.Kind)
	}
	return nil
}

// OpCount returns the total number of ops across all programs.
func (p *Plan) OpCount() int {
	n := 0
	for _, tbs := range p.Programs {
		for _, ops := range tbs {
			n += len(ops)
		}
	}
	return n
}
