package dsl

import (
	"errors"
	"fmt"
	"strings"

	"mscclpp/internal/plan"
)

// Lower runs dependence analysis, synchronization insertion, redundant-sync
// elimination and operation fusion, and returns the validated execution
// plan (paper §5.3).
func (p *Program) Lower() (*plan.Plan, error) {
	if len(p.errs) > 0 {
		msgs := make([]string, 0, len(p.errs))
		for _, e := range p.errs {
			msgs = append(msgs, e.Error())
		}
		return nil, errors.New("dsl: program has errors: " + strings.Join(msgs, "; "))
	}
	pl := &plan.Plan{
		Name:       p.Name,
		Collective: p.Collective,
		Ranks:      p.Ranks,
		NumTB:      p.NumTB,
		InSize:     p.InSize,
		OutSize:    p.OutSize,
		MaxFlag:    p.maxFlag,
		Channels:   append([]plan.Channel(nil), p.channels...),
		Scratch:    append([]plan.Scratch(nil), p.scratch...),
	}
	pl.Programs = make([][][]plan.Op, p.Ranks)
	for r := 0; r < p.Ranks; r++ {
		pl.Programs[r] = make([][]plan.Op, p.NumTB)
		for tb := 0; tb < p.NumTB; tb++ {
			ops := append([]plan.Op(nil), p.streams[r][tb]...)
			// Fusion first: it eliminates the intermediate write whose
			// dependence would otherwise force a synchronization.
			ops = fuseOps(ops, p.channels)
			ops = insertSyncs(ops, r)
			ops = dedupSyncs(ops)
			pl.Programs[r][tb] = ops
		}
	}
	if err := checkSignalBalance(pl); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

// interval is a written byte range of one buffer.
type interval struct {
	buf      plan.BufRef
	off, end int64
}

func overlaps(a, b interval) bool {
	return a.buf == b.buf && a.off < b.end && b.off < a.end
}

// accesses returns the local-rank chunks op reads and writes (remote-side
// chunks are synchronized by explicit signal/wait, as in the paper).
func accesses(op plan.Op, rank int) (reads, writes []interval) {
	toIv := func(c plan.Chunk) (interval, bool) {
		if c.Size == 0 {
			return interval{}, false
		}
		if c.Buf.Rank != rank {
			return interval{}, false
		}
		return interval{buf: c.Buf, off: c.Off, end: c.Off + c.Size}, true
	}
	switch op.Code {
	case plan.OpPut, plan.OpPutPackets, plan.OpPutWithSignal:
		if iv, ok := toIv(op.Src); ok {
			reads = append(reads, iv)
		}
	case plan.OpReducePut:
		if iv, ok := toIv(op.Src); ok {
			reads = append(reads, iv)
		}
		if iv, ok := toIv(op.Data); ok {
			reads = append(reads, iv)
		}
	case plan.OpLocalCopy, plan.OpLocalReduce, plan.OpChanReduce, plan.OpSwitchReduce:
		if iv, ok := toIv(op.Src); ok {
			reads = append(reads, iv)
		}
		if iv, ok := toIv(op.Dst); ok {
			writes = append(writes, iv)
			if op.Code == plan.OpLocalReduce || op.Code == plan.OpChanReduce {
				reads = append(reads, iv)
			}
		}
	case plan.OpSwitchBcast:
		if iv, ok := toIv(op.Src); ok {
			reads = append(reads, iv)
		}
	}
	return reads, writes
}

// insertSyncs adds a tb_sync before any op that touches data written by an
// earlier op since the last synchronization point (chunk-level last-writer
// tracking, paper §5.3).
func insertSyncs(ops []plan.Op, rank int) []plan.Op {
	var out []plan.Op
	var dirty []interval
	isSyncPoint := func(c plan.OpCode) bool {
		switch c {
		case plan.OpTBSync, plan.OpGridBarrier, plan.OpWait, plan.OpAwaitPackets, plan.OpFlush:
			return true
		}
		return false
	}
	for _, op := range ops {
		if isSyncPoint(op.Code) {
			dirty = dirty[:0]
			out = append(out, op)
			continue
		}
		reads, writes := accesses(op, rank)
		conflict := false
		for _, a := range append(append([]interval(nil), reads...), writes...) {
			for _, d := range dirty {
				if overlaps(a, d) {
					conflict = true
					break
				}
			}
			if conflict {
				break
			}
		}
		if conflict {
			out = append(out, plan.Op{Code: plan.OpTBSync})
			dirty = dirty[:0]
		}
		dirty = append(dirty, writes...)
		out = append(out, op)
	}
	return out
}

// fuseOps merges operation pairs meeting the fusion criteria (§5.3):
// local_reduce immediately followed by a MemoryChannel put of the reduced
// chunk becomes reduce_put (register-resident intermediate), and put
// immediately followed by signal on the same channel becomes
// put_with_signal.
func fuseOps(ops []plan.Op, chans []plan.Channel) []plan.Op {
	var out []plan.Op
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		// local_reduce(A += B); put(ch, dst, A) -> reduce_put, valid when no
		// later op in this stream reads or writes A (the reduced value
		// lives only in registers).
		if op.Code == plan.OpLocalReduce && i+1 < len(ops) {
			nxt := ops[i+1]
			if nxt.Code == plan.OpPut && chans[nxt.Channel].Type == plan.ChanMemory && nxt.Src == op.Dst &&
				nxt.GroupRank == op.GroupRank && nxt.GroupSize == op.GroupSize &&
				!chunkTouchedLater(ops[i+2:], op.Dst) {
				out = append(out, plan.Op{
					Code: plan.OpReducePut, Channel: nxt.Channel,
					Dst: nxt.Dst, Src: op.Dst, Data: op.Src,
					GroupRank: op.GroupRank, GroupSize: op.GroupSize,
				})
				i++
				continue
			}
		}
		// put; signal (same channel) -> put_with_signal.
		if op.Code == plan.OpPut && i+1 < len(ops) {
			nxt := ops[i+1]
			if nxt.Code == plan.OpSignal && nxt.Channel == op.Channel {
				f := op
				f.Code = plan.OpPutWithSignal
				out = append(out, f)
				i++
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

// chunkTouchedLater reports whether any later op reads or writes chunk c.
func chunkTouchedLater(ops []plan.Op, c plan.Chunk) bool {
	iv := interval{buf: c.Buf, off: c.Off, end: c.Off + c.Size}
	for _, op := range ops {
		reads, writes := accesses(op, c.Buf.Rank)
		for _, a := range append(reads, writes...) {
			if overlaps(a, iv) {
				return true
			}
		}
	}
	return false
}

// dedupSyncs removes back-to-back thread-block synchronizations and syncs
// at the stream head (§5.3: "redundancies will be removed, retaining only
// one of them").
func dedupSyncs(ops []plan.Op) []plan.Op {
	var out []plan.Op
	for _, op := range ops {
		if op.Code == plan.OpTBSync {
			if len(out) == 0 {
				continue
			}
			last := out[len(out)-1].Code
			if last == plan.OpTBSync || last == plan.OpGridBarrier ||
				last == plan.OpWait || last == plan.OpAwaitPackets {
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

// checkSignalBalance verifies that each channel's signal-like ops match its
// waits (a mismatch deadlocks the executor).
func checkSignalBalance(pl *plan.Plan) error {
	signals := make(map[int]int)
	waits := make(map[int]int)
	for _, tbs := range pl.Programs {
		for _, ops := range tbs {
			for _, op := range ops {
				switch op.Code {
				case plan.OpSignal, plan.OpPutWithSignal:
					signals[op.Channel]++
				case plan.OpWait:
					waits[op.Channel]++
				}
			}
		}
	}
	for ch, w := range waits {
		if s := signals[ch]; s < w {
			return fmt.Errorf("dsl: channel %d has %d waits but only %d signals", ch, w, s)
		}
	}
	return nil
}
