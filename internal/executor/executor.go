// Package executor implements the MSCCL++ DSL Executor (paper §5.4): a
// single generic GPU kernel that interprets an execution plan — setting up
// channels, registering memory, allocating semaphores and scratch — and
// inlines Primitive API calls for each operation in the plan.
package executor

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/plan"
)

// Instance is one plan bound to concrete buffers and channels, reusable
// across invocations.
type Instance struct {
	M    *machine.Machine
	Comm *core.Communicator
	Plan *plan.Plan

	in, out []*mem.Buffer
	scratch map[[2]int]*mem.Buffer

	memSrc  map[int]*core.MemoryChannel // channel id -> source endpoint
	memDst  map[int]*core.MemoryChannel // channel id -> destination endpoint
	portSrc map[int]*core.PortChannel
	portDst map[int]*core.PortChannel
	swChans map[int]map[int]*core.SwitchChannel // channel id -> rank -> endpoint

	iter uint64
}

// New binds pl to per-rank input/output buffers, allocating scratch and
// constructing all channels (the Executor's initialization step).
func New(c *core.Communicator, pl *plan.Plan, in, out []*mem.Buffer) (*Instance, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	m := c.M
	if pl.Ranks != len(m.GPUs) {
		return nil, fmt.Errorf("executor: plan for %d ranks on %d-GPU machine", pl.Ranks, len(m.GPUs))
	}
	if len(in) != pl.Ranks || len(out) != pl.Ranks {
		return nil, fmt.Errorf("executor: need %d in/out buffers", pl.Ranks)
	}
	for r := 0; r < pl.Ranks; r++ {
		if in[r].Size() != pl.InSize || out[r].Size() != pl.OutSize {
			return nil, fmt.Errorf("executor: rank %d buffer sizes (%d,%d) don't match plan (%d,%d)",
				r, in[r].Size(), out[r].Size(), pl.InSize, pl.OutSize)
		}
	}
	x := &Instance{
		M: m, Comm: c, Plan: pl, in: in, out: out,
		scratch: make(map[[2]int]*mem.Buffer),
		memSrc:  make(map[int]*core.MemoryChannel),
		memDst:  make(map[int]*core.MemoryChannel),
		portSrc: make(map[int]*core.PortChannel),
		portDst: make(map[int]*core.PortChannel),
		swChans: make(map[int]map[int]*core.SwitchChannel),
	}
	for _, s := range pl.Scratch {
		x.scratch[[2]int{s.Rank, s.Index}] = m.Alloc(s.Rank, fmt.Sprintf("%s.scr%d", pl.Name, s.Index), s.Size)
	}
	for _, ch := range pl.Channels {
		switch ch.Type {
		case plan.ChanMemory:
			srcBuf := x.resolve(ch.SrcBuf)
			dstBuf := x.resolve(ch.DstBuf)
			// Reverse direction is unused; bind dummies.
			revSrc := mem.NewBuffer(ch.DstRank, "dummy", 4)
			revDst := mem.NewBuffer(ch.SrcRank, "dummy", 4)
			s, d := c.NewMemoryChannelPairEx(ch.SrcRank, ch.DstRank, srcBuf, dstBuf, revSrc, revDst)
			x.memSrc[ch.ID] = s
			x.memDst[ch.ID] = d
		case plan.ChanPort:
			srcBuf := x.resolve(ch.SrcBuf)
			dstBuf := x.resolve(ch.DstBuf)
			revSrc := mem.NewBuffer(ch.DstRank, "dummy", 4)
			revDst := mem.NewBuffer(ch.SrcRank, "dummy", 4)
			s, d := c.NewPortChannelPairEx(ch.SrcRank, ch.DstRank, srcBuf, dstBuf, revSrc, revDst)
			x.portSrc[ch.ID] = s
			x.portDst[ch.ID] = d
		case plan.ChanSwitch:
			bufs := make([]*mem.Buffer, len(ch.Bufs))
			for i, b := range ch.Bufs {
				bufs[i] = x.resolve(b)
			}
			endpoints := c.NewSwitchChannels(ch.Ranks, bufs)
			byRank := make(map[int]*core.SwitchChannel, len(ch.Ranks))
			for i, r := range ch.Ranks {
				byRank[r] = endpoints[i]
			}
			x.swChans[ch.ID] = byRank
		default:
			return nil, fmt.Errorf("executor: unknown channel type %q", ch.Type)
		}
	}
	return x, nil
}

func (x *Instance) resolve(b plan.BufRef) *mem.Buffer {
	switch b.Kind {
	case plan.BufInput:
		return x.in[b.Rank]
	case plan.BufOutput:
		return x.out[b.Rank]
	case plan.BufScratch:
		return x.scratch[[2]int{b.Rank, b.Index}]
	}
	panic(fmt.Sprintf("executor: unresolvable buffer %+v", b))
}

// Launch starts one invocation: the generic execution kernel on every rank
// interprets its thread blocks' op streams.
func (x *Instance) Launch() {
	x.iter++
	flagBase := (x.iter - 1) * (x.Plan.MaxFlag + 1)
	x.M.LaunchAll("dsl-exec/"+x.Plan.Name, x.Plan.NumTB, func(k *machine.Kernel, r int) {
		for _, op := range x.Plan.Programs[r][k.Block] {
			x.step(k, op, flagBase)
		}
	})
}

// step interprets one operation, charging the interpreter dispatch cost.
func (x *Instance) step(k *machine.Kernel, op plan.Op, flagBase uint64) {
	model := k.Model()
	k.Elapse(model.DSLDispatch)
	g, gi := op.GroupSize, op.GroupRank
	if g <= 0 {
		g, gi = 1, 0
	}
	switch op.Code {
	case plan.OpPut:
		if ch, ok := x.memSrc[op.Channel]; ok {
			ch.PutBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
		} else {
			x.portSrc[op.Channel].Put(k, op.Dst.Off, op.Src.Off, op.Src.Size, gi, g)
		}
	case plan.OpPutWithSignal:
		if ch, ok := x.memSrc[op.Channel]; ok {
			// Explicit-buffer put then fused signal via the channel.
			ch.PutBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
			ch.Signal(k)
		} else {
			x.portSrc[op.Channel].PutWithSignal(k, op.Dst.Off, op.Src.Off, op.Src.Size, gi, g)
		}
	case plan.OpPutPackets:
		x.memSrc[op.Channel].PutPacketsBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g, flagBase+op.Flag)
	case plan.OpAwaitPackets:
		x.memDst[op.Channel].AwaitPackets(k, flagBase+op.Flag, op.Target)
	case plan.OpSignal:
		if ch, ok := x.memSrc[op.Channel]; ok {
			ch.Signal(k)
		} else {
			x.portSrc[op.Channel].Signal(k)
		}
	case plan.OpWait:
		if ch, ok := x.memDst[op.Channel]; ok {
			ch.Wait(k)
		} else {
			x.portDst[op.Channel].Wait(k)
		}
	case plan.OpFlush:
		if ch, ok := x.memSrc[op.Channel]; ok {
			ch.Flush(k)
		} else {
			x.portSrc[op.Channel].Flush(k)
		}
	case plan.OpChanReduce:
		x.memSrc[op.Channel].ReduceBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
	case plan.OpReducePut:
		x.memSrc[op.Channel].ReducePut(k, op.Dst.Off, op.Src.Off,
			x.resolve(op.Data.Buf), op.Data.Off, op.Src.Size, gi, g)
	case plan.OpLocalCopy:
		k.CopyShard(x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
	case plan.OpLocalReduce:
		k.ReduceShard(x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
	case plan.OpTBSync:
		k.TBSync()
	case plan.OpGridBarrier:
		k.GridBarrier()
	case plan.OpSwitchReduce:
		x.swChans[op.Channel][k.GPU.Rank].ReduceInto(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			op.Src.Off, op.Src.Size, gi, g)
	case plan.OpSwitchBcast:
		x.swChans[op.Channel][k.GPU.Rank].BroadcastFrom(k, x.resolve(op.Src.Buf), op.Src.Off,
			op.Dst.Off, op.Src.Size, gi, g)
	default:
		panic(fmt.Sprintf("executor: unknown op %q", op.Code))
	}
}
