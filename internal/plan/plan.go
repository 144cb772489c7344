// Package plan defines the execution-plan IR that MSCCL++ DSL programs
// lower to (paper §5.3): a JSON-serializable description of channels,
// scratch buffers, semaphores and the per-thread-block operation streams
// that the DSL Executor interprets.
package plan

import (
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

// Validate performs structural checks.
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
	checkChunk := func(c Chunk) error {
		if c.Size == 0 && c.Off == 0 {
			return nil // absent operand
		}
		sz, err := bufSize(c.Buf)
		if err != nil {
			return err
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
		if ch.Type != ChanSwitch {
			if ch.SrcRank == ch.DstRank || ch.SrcRank < 0 || ch.DstRank < 0 ||
				ch.SrcRank >= p.Ranks || ch.DstRank >= p.Ranks {
				return fmt.Errorf("plan %s: channel %d ranks (%d,%d)", p.Name, ci, ch.SrcRank, ch.DstRank)
			}
		}
		for _, r := range ch.Ranks {
			if r < 0 || r >= p.Ranks {
				return fmt.Errorf("plan %s: channel %d member rank %d", p.Name, ci, r)
			}
		}
	}
	for r, tbs := range p.Programs {
		for tb, ops := range tbs {
			for oi, op := range ops {
				types := chanTypes(op.Code)
				if op.Channel < 0 || (op.Channel >= len(p.Channels) && types != nil) {
					return fmt.Errorf("plan %s: rank %d tb %d op %d: channel %d out of range",
						p.Name, r, tb, oi, op.Channel)
				}
				if types != nil {
					if err := checkChannelOp(op, p.Channels[op.Channel], types, r); err != nil {
						return fmt.Errorf("plan %s: rank %d tb %d op %d: %w", p.Name, r, tb, oi, err)
					}
				}
				for _, ck := range []Chunk{op.Dst, op.Src, op.Data} {
					if err := checkChunk(ck); err != nil {
						return fmt.Errorf("plan %s: rank %d tb %d op %d (%s): %w",
							p.Name, r, tb, oi, op.Code, err)
					}
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

// chanTypes returns the channel types op code c may run on, or nil when c
// uses no channel. Packets, channel reduces and reduce_put are
// MemoryChannel primitives; multimem ops need a switch channel.
func chanTypes(c OpCode) []ChannelType {
	switch c {
	case OpPut, OpPutWithSignal, OpSignal, OpWait, OpFlush:
		return pointToPoint
	case OpPutPackets, OpAwaitPackets, OpChanReduce, OpReducePut:
		return memoryOnly
	case OpSwitchReduce, OpSwitchBcast:
		return switchOnly
	}
	return nil
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
