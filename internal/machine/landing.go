package machine

import (
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// LandOp selects the data movement a Landing applies when its transfer
// completes.
type LandOp uint8

const (
	// LandCopy copies N bytes of Src at SrcOff into Dst at DstOff.
	LandCopy LandOp = iota
	// LandAccumulate adds N bytes of Src at SrcOff element-wise into Dst at
	// DstOff.
	LandAccumulate
	// LandCopyAccumulate copies like LandCopy, then adds Data at DataOff
	// into the same Dst range: the fused reduce-put.
	LandCopyAccumulate
	// LandGroupReduce stores the in-switch sum of SrcGroup's members at
	// SrcOff into Dst at DstOff (multimem.ld_reduce).
	LandGroupReduce
	// LandGroupBroadcast stores Src at SrcOff into every member of DstGroup
	// at DstOff (multimem.st).
	LandGroupBroadcast
	// LandReduceBroadcast stores the sum of SrcGroup's members at SrcOff
	// into every member of DstGroup at DstOff (fused ld_reduce + st).
	LandReduceBroadcast
)

// Landing is one transfer completion: the data movement Op applies when the
// transfer's last byte is visible, then an optional semaphore bump. Fields
// an Op does not name are ignored.
type Landing struct {
	Op                 LandOp
	Dst, Src, Data     *mem.Buffer
	DstGroup, SrcGroup *mem.Multimem
	DstOff, SrcOff     int64
	DataOff, N         int64
	// Sem, when set, is incremented by SemAdd after the data has landed.
	Sem    *sim.Semaphore
	SemAdd uint64
}

// landing is a pooled Landing scheduled on the engine.
type landing struct {
	Landing
	m    *Machine
	next *landing // free-list link
}

// Land schedules l to apply at virtual time t. It takes the same engine
// sequence number an Engine.At callback scheduled at this point would, so a
// kernel that lands data and then sleeps until t resumes after the data is
// written. The record comes from a machine-wide free list and returns to it
// when it fires, so a warm landing allocates nothing. The list is not per
// channel slot because LL puts have no rendezvous: a sender can issue a
// slot's next landing before the previous one has fired.
func (m *Machine) Land(t sim.Time, l Landing) { m.Engine.Do(t, m.takeLanding(l)) }

// takeLanding returns a record holding l from the free list, or a new one.
func (m *Machine) takeLanding(l Landing) *landing {
	r := m.freeLandings
	if r == nil {
		r = &landing{m: m}
	} else {
		m.freeLandings = r.next
	}
	r.Landing = l
	return r
}

// Fire applies the landing, returns the record to the free list and bumps
// the semaphore.
func (r *landing) Fire() {
	l := &r.Landing
	switch l.Op {
	case LandCopy:
		l.Src.CopyTo(l.Dst, l.DstOff, l.SrcOff, l.N)
	case LandAccumulate:
		l.Dst.AccumulateFrom(l.Src, l.DstOff, l.SrcOff, l.N)
	case LandCopyAccumulate:
		l.Src.CopyTo(l.Dst, l.DstOff, l.SrcOff, l.N)
		l.Dst.AccumulateFrom(l.Data, l.DstOff, l.DataOff, l.N)
	case LandGroupReduce:
		l.SrcGroup.ReduceInto(l.Dst, l.DstOff, l.SrcOff, l.N)
	case LandGroupBroadcast:
		l.DstGroup.BroadcastFrom(l.Src, l.DstOff, l.SrcOff, l.N)
	case LandReduceBroadcast:
		mem.ReduceBroadcast(l.SrcGroup, l.DstGroup, l.DstOff, l.SrcOff, l.N)
	}
	sem, add := l.Sem, l.SemAdd
	r.Landing = Landing{}
	r.next, r.m.freeLandings = r.m.freeLandings, r
	if sem != nil {
		sem.Add(add)
	}
}
