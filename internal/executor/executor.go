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

	chans []channel // indexed by plan channel id

	launch   *machine.Launch // the generic execution kernel, built by New
	iter     uint64
	flagBase uint64 // the current invocation's offset to the plan's LL flags
}

// channel holds one plan channel's endpoints: the source and destination
// ends of a memory or port channel, or a switch channel's members by rank.
type channel struct {
	src, dst core.Channel
	members  []*core.SwitchChannel
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
		chans:   make([]channel, len(pl.Channels)),
	}
	for _, s := range pl.Scratch {
		x.scratch[[2]int{s.Rank, s.Index}] = m.Alloc(s.Rank, fmt.Sprintf("%s.scr%d", pl.Name, s.Index), s.Size)
	}
	for i, ch := range pl.Channels {
		e := &x.chans[i]
		switch ch.Type {
		case plan.ChanMemory, plan.ChanPort:
			srcBuf, dstBuf := x.resolve(ch.SrcBuf), x.resolve(ch.DstBuf)
			// Reverse direction is unused; bind dummies.
			revSrc := mem.NewBuffer(ch.DstRank, "dummy", 4)
			revDst := mem.NewBuffer(ch.SrcRank, "dummy", 4)
			if ch.Type == plan.ChanMemory {
				e.src, e.dst = c.NewMemoryChannelPairEx(ch.SrcRank, ch.DstRank, srcBuf, dstBuf, revSrc, revDst)
			} else {
				e.src, e.dst = c.NewPortChannelPairEx(ch.SrcRank, ch.DstRank, srcBuf, dstBuf, revSrc, revDst)
			}
		case plan.ChanSwitch:
			if !m.Fabric.HasSwitch() {
				return nil, fmt.Errorf("executor: switch channel %d on %s, which has no switch-mapped I/O", i, m.Env.Name)
			}
			bufs := make([]*mem.Buffer, len(ch.Bufs))
			for i, b := range ch.Bufs {
				if m.GPUs[b.Rank].Node != m.GPUs[ch.Bufs[0].Rank].Node {
					return nil, fmt.Errorf("executor: switch channel %d spans nodes; one NVSwitch serves one node", ch.ID)
				}
				bufs[i] = x.resolve(b)
			}
			e.members = make([]*core.SwitchChannel, pl.Ranks)
			for i, sc := range c.NewSwitchChannels(ch.Ranks, bufs) {
				e.members[ch.Ranks[i]] = sc
			}
		default:
			return nil, fmt.Errorf("executor: unknown channel type %q", ch.Type)
		}
	}
	x.launch = m.Kernel("dsl-exec/"+pl.Name, pl.NumTB, func(k *machine.Kernel, r int) {
		for _, op := range pl.Programs[r][k.Block] {
			x.step(k, op)
		}
	})
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

// Launch starts one invocation: the generic execution kernel on every rank,
// built once by New, interprets its thread blocks' op streams again. Each
// invocation moves the plan's LL flags to a range of its own.
func (x *Instance) Launch() {
	x.iter++
	x.flagBase = (x.iter - 1) * (x.Plan.MaxFlag + 1)
	x.launch.Start()
}

// step interprets one operation, charging the interpreter dispatch cost.
func (x *Instance) step(k *machine.Kernel, op plan.Op) {
	model := k.Model()
	k.Elapse(model.DSLDispatch)
	g, gi := op.GroupSize, op.GroupRank
	if g <= 0 {
		g, gi = 1, 0
	}
	switch op.Code {
	case plan.OpPut, plan.OpPutWithSignal:
		src := x.chans[op.Channel].src
		switch mc, ok := src.(*core.MemoryChannel); {
		case ok:
			// A MemoryChannel stores into the op's buffers; the signal
			// of put_with_signal follows as its own call.
			mc.PutBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
			if op.Code == plan.OpPutWithSignal {
				mc.Signal(k)
			}
		case op.Code == plan.OpPut:
			// A proxy request carries offsets into the bound buffers,
			// which plan.Validate checked the op names.
			src.Put(k, op.Dst.Off, op.Src.Off, op.Src.Size, gi, g)
		default:
			src.PutWithSignal(k, op.Dst.Off, op.Src.Off, op.Src.Size, gi, g)
		}
	case plan.OpPutPackets:
		x.chans[op.Channel].src.(*core.MemoryChannel).PutPacketsBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g, x.flagBase+op.Flag)
	case plan.OpAwaitPackets:
		x.chans[op.Channel].dst.(*core.MemoryChannel).AwaitPackets(k, x.flagBase+op.Flag, op.Target)
	case plan.OpSignal:
		x.chans[op.Channel].src.Signal(k)
	case plan.OpWait:
		x.chans[op.Channel].dst.Wait(k)
	case plan.OpFlush:
		x.chans[op.Channel].src.Flush(k)
	case plan.OpChanReduce:
		x.chans[op.Channel].src.(*core.MemoryChannel).ReduceBuf(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
	case plan.OpReducePut:
		x.chans[op.Channel].src.(*core.MemoryChannel).ReducePut(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			x.resolve(op.Src.Buf), op.Src.Off, x.resolve(op.Data.Buf), op.Data.Off, op.Src.Size, gi, g)
	case plan.OpLocalCopy:
		k.CopyShard(x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
	case plan.OpLocalReduce:
		k.ReduceShard(x.resolve(op.Dst.Buf), op.Dst.Off, x.resolve(op.Src.Buf), op.Src.Off, op.Src.Size, gi, g)
	case plan.OpTBSync:
		k.TBSync()
	case plan.OpGridBarrier:
		k.GridBarrier()
	case plan.OpSwitchReduce:
		x.chans[op.Channel].members[k.GPU.Rank].ReduceInto(k, x.resolve(op.Dst.Buf), op.Dst.Off,
			op.Src.Off, op.Src.Size, gi, g)
	case plan.OpSwitchBcast:
		x.chans[op.Channel].members[k.GPU.Rank].BroadcastFrom(k, x.resolve(op.Src.Buf), op.Src.Off,
			op.Dst.Off, op.Src.Size, gi, g)
	default:
		panic(fmt.Sprintf("executor: unknown op %q", op.Code))
	}
}
