// Package mem implements simulated GPU device memory: registered
// communication buffers, typed float32 access for reductions, and multimem
// address groups for switch-mapped I/O.
//
// A Buffer has a modeled length (what the timing model charges for) and,
// optionally, materialized backing storage. Correctness tests run fully
// materialized so every collective is verified bit-for-bit; large-message
// benchmarks (up to 1 GB per rank) run virtual buffers, whose costs are
// still charged by the timing model.
//
// Virtual buffers hold no data: reads from them contribute nothing and
// writes to them are dropped. Every data operation (copy, accumulate,
// multimem reduce or broadcast) still checks its bounds once per range
// against the modeled size of every buffer it names, materialized or
// virtual, and skips its element loop when it reads or writes nothing
// materialized. On virtual buffers a data operation therefore costs
// O(members) host time, independent of its length.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buffer is a region of simulated GPU memory registered for communication.
type Buffer struct {
	Rank int    // owning GPU (global rank)
	Name string // diagnostic label
	size int64  // modeled length in bytes
	data []byte // nil when virtual
}

// NewBuffer allocates a materialized buffer of size bytes on rank.
func NewBuffer(rank int, name string, size int64) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative buffer size %d", size))
	}
	return &Buffer{Rank: rank, Name: name, size: size, data: make([]byte, size)}
}

// NewVirtualBuffer allocates a buffer whose size is modeled for timing but
// which carries no backing data. All data operations on it are no-ops.
func NewVirtualBuffer(rank int, name string, size int64) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative buffer size %d", size))
	}
	return &Buffer{Rank: rank, Name: name, size: size}
}

// Size returns the modeled length in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Materialized reports whether the buffer has real backing storage.
func (b *Buffer) Materialized() bool { return b.data != nil }

// Bytes returns the backing storage (nil for virtual buffers).
func (b *Buffer) Bytes() []byte { return b.data }

func (b *Buffer) check(off, n int64) {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("mem: out-of-bounds access [%d,%d) of %s (size %d)",
			off, off+n, b.Name, b.size))
	}
}

// CopyTo copies n bytes from b[srcOff:] into dst[dstOff:]. Bounds are always
// checked against modeled sizes; data moves only if both sides are
// materialized.
func (b *Buffer) CopyTo(dst *Buffer, dstOff, srcOff, n int64) {
	b.check(srcOff, n)
	dst.check(dstOff, n)
	if b.data == nil || dst.data == nil {
		return
	}
	copy(dst.data[dstOff:dstOff+n], b.data[srcOff:srcOff+n])
}

// Float32 returns the float32 at byte offset off.
func (b *Buffer) Float32(off int64) float32 {
	b.check(off, 4)
	if b.data == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b.data[off:]))
}

// SetFloat32 stores v at byte offset off.
func (b *Buffer) SetFloat32(off int64, v float32) {
	b.check(off, 4)
	if b.data == nil {
		return
	}
	binary.LittleEndian.PutUint32(b.data[off:], math.Float32bits(v))
}

// FillFloat32 writes v to every 4-byte element.
func (b *Buffer) FillFloat32(v float32) {
	if b.data == nil {
		return
	}
	bits := math.Float32bits(v)
	for off := int64(0); off+4 <= b.size; off += 4 {
		binary.LittleEndian.PutUint32(b.data[off:], bits)
	}
}

// FillPattern writes a deterministic per-rank pattern used by tests:
// element i gets pattern(rank, i).
func (b *Buffer) FillPattern(f func(i int64) float32) {
	if b.data == nil {
		return
	}
	for off, i := int64(0), int64(0); off+4 <= b.size; off, i = off+4, i+1 {
		binary.LittleEndian.PutUint32(b.data[off:], math.Float32bits(f(i)))
	}
}

// AccumulateFrom adds n bytes' worth of float32 elements from src[srcOff:]
// into b[dstOff:], element-wise (b += src). n must be a multiple of 4 when
// materialized.
func (b *Buffer) AccumulateFrom(src *Buffer, dstOff, srcOff, n int64) {
	b.check(dstOff, n)
	src.check(srcOff, n)
	if b.data == nil || src.data == nil {
		return
	}
	if n%4 != 0 {
		panic(fmt.Sprintf("mem: reduce length %d not a multiple of 4", n))
	}
	for i := int64(0); i < n; i += 4 {
		d := b.data[dstOff+i:]
		s := src.data[srcOff+i:]
		sum := math.Float32frombits(binary.LittleEndian.Uint32(d)) +
			math.Float32frombits(binary.LittleEndian.Uint32(s))
		binary.LittleEndian.PutUint32(d, math.Float32bits(sum))
	}
}

// EqualFloat32 reports whether every element of b matches want within eps.
// Virtual buffers vacuously match.
func (b *Buffer) EqualFloat32(want func(i int64) float32, eps float32) error {
	if b.data == nil {
		return nil
	}
	for off, i := int64(0), int64(0); off+4 <= b.size; off, i = off+4, i+1 {
		got := math.Float32frombits(binary.LittleEndian.Uint32(b.data[off:]))
		w := want(i)
		d := got - w
		if d < 0 {
			d = -d
		}
		lim := eps
		if w != 0 {
			aw := w
			if aw < 0 {
				aw = -aw
			}
			lim = eps * aw
		}
		if d > lim {
			return fmt.Errorf("mem: %s[%d] = %v, want %v", b.Name, i, got, w)
		}
	}
	return nil
}

// Multimem is a multimem address group: a virtual address that fans out to
// one buffer per participating rank (paper Section 4.3). Switch-mapped
// reduce reads all members through the switch; broadcast stores to all
// members.
type Multimem struct {
	Name    string
	Members []*Buffer // indexed by position in the participating rank list
}

// NewMultimem builds a multimem group over per-rank buffers, which must all
// share the same modeled size.
func NewMultimem(name string, members []*Buffer) (*Multimem, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("mem: multimem %s has no members", name)
	}
	size := members[0].Size()
	for _, b := range members {
		if b.Size() != size {
			return nil, fmt.Errorf("mem: multimem %s member sizes differ (%d vs %d)",
				name, size, b.Size())
		}
	}
	return &Multimem{Name: name, Members: members}, nil
}

// Size returns the per-member modeled size.
func (m *Multimem) Size() int64 { return m.Members[0].Size() }

// ReduceInto sums member[*][srcOff:srcOff+n] element-wise into
// dst[dstOff:dstOff+n] (the in-switch reduction of multimem.ld_reduce).
// Virtual members contribute nothing, so with no materialized member a
// materialized dst range is zeroed. Bounds are checked once per range on dst
// and on every member, materialized or virtual; members are not checked when
// n is 0. A virtual dst costs O(members) host time, independent of n.
func (m *Multimem) ReduceInto(dst *Buffer, dstOff, srcOff, n int64) {
	dst.check(dstOff, n)
	anySrc := n > 0 && m.checkRange(srcOff, n)
	if dst.data == nil {
		return
	}
	if n%4 != 0 {
		panic(fmt.Sprintf("mem: multimem reduce length %d not a multiple of 4", n))
	}
	if !anySrc {
		clear(dst.data[dstOff : dstOff+n])
		return
	}
	for i := int64(0); i < n; i += 4 {
		var sum float32
		for _, mb := range m.Members {
			if mb.data == nil {
				continue
			}
			sum += math.Float32frombits(binary.LittleEndian.Uint32(mb.data[srcOff+i:]))
		}
		binary.LittleEndian.PutUint32(dst.data[dstOff+i:], math.Float32bits(sum))
	}
}

// checkRange bounds-checks [off, off+n) on every member and reports whether
// any member is materialized.
func (m *Multimem) checkRange(off, n int64) (materialized bool) {
	for _, mb := range m.Members {
		mb.check(off, n)
		if mb.data != nil {
			materialized = true
		}
	}
	return materialized
}

// BroadcastFrom stores src[srcOff:srcOff+n] into every member's
// [dstOff:dstOff+n] (multimem.st through the switch).
func (m *Multimem) BroadcastFrom(src *Buffer, dstOff, srcOff, n int64) {
	src.check(srcOff, n)
	for _, mb := range m.Members {
		src.CopyTo(mb, dstOff, srcOff, n)
	}
}

// ReduceBroadcast performs the fused ld_reduce + multimem.st data movement:
// element-wise sums of src's materialized members at srcOff are stored into
// every materialized member of dst at dstOff (without touching any
// intermediate buffer). Bounds are checked once per range on every member
// of both groups, materialized or virtual; src is not checked when n is 0.
// When no src member or no dst member is materialized nothing moves, so the
// call costs O(members) host time, independent of n.
func ReduceBroadcast(src, dst *Multimem, dstOff, srcOff, n int64) {
	if n%4 != 0 {
		panic(fmt.Sprintf("mem: reduce-broadcast length %d not a multiple of 4", n))
	}
	anyDst := dst.checkRange(dstOff, n)
	if n <= 0 || !src.checkRange(srcOff, n) || !anyDst {
		return
	}
	for i := int64(0); i < n; i += 4 {
		var sum float32
		for _, sb := range src.Members {
			if sb.data == nil {
				continue
			}
			sum += math.Float32frombits(binary.LittleEndian.Uint32(sb.data[srcOff+i:]))
		}
		bits := math.Float32bits(sum)
		for _, d := range dst.Members {
			if d.data != nil {
				binary.LittleEndian.PutUint32(d.data[dstOff+i:], bits)
			}
		}
	}
}
