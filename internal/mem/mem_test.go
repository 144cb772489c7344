package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBufferSizes(t *testing.T) {
	b := NewBuffer(0, "b", 64)
	if b.Size() != 64 || !b.Materialized() {
		t.Fatalf("size=%d materialized=%v", b.Size(), b.Materialized())
	}
	v := NewVirtualBuffer(1, "v", 1<<30)
	if v.Size() != 1<<30 || v.Materialized() {
		t.Fatalf("virtual: size=%d materialized=%v", v.Size(), v.Materialized())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuffer(0, "bad", -1)
}

func TestFloat32RoundTrip(t *testing.T) {
	b := NewBuffer(0, "b", 16)
	b.SetFloat32(4, 3.25)
	if got := b.Float32(4); got != 3.25 {
		t.Fatalf("got %v", got)
	}
	if got := b.Float32(0); got != 0 {
		t.Fatalf("untouched element = %v", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	b := NewBuffer(0, "b", 8)
	cases := []func(){
		func() { b.Float32(8) },
		func() { b.Float32(-4) },
		func() { b.SetFloat32(6, 1) },
		func() { b.CopyTo(NewBuffer(0, "d", 8), 4, 0, 8) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCopyTo(t *testing.T) {
	src := NewBuffer(0, "src", 32)
	dst := NewBuffer(1, "dst", 32)
	src.FillPattern(func(i int64) float32 { return float32(i) })
	src.CopyTo(dst, 8, 8, 16)
	if dst.Float32(8) != 2 || dst.Float32(20) != 5 {
		t.Fatalf("copy wrong: %v %v", dst.Float32(8), dst.Float32(20))
	}
	if dst.Float32(0) != 0 || dst.Float32(24) != 0 {
		t.Fatal("copy spilled outside range")
	}
}

func TestVirtualOpsAreNoops(t *testing.T) {
	v := NewVirtualBuffer(0, "v", 1024)
	m := NewBuffer(1, "m", 1024)
	m.FillFloat32(7)
	// None of these should panic or move data.
	v.SetFloat32(0, 1)
	if v.Float32(0) != 0 {
		t.Fatal("virtual read returned data")
	}
	v.CopyTo(m, 0, 0, 1024)
	if m.Float32(0) != 7 {
		t.Fatal("virtual source overwrote materialized destination")
	}
	m.CopyTo(v, 0, 0, 1024)
	v.AccumulateFrom(m, 0, 0, 1024)
	if err := v.EqualFloat32(func(int64) float32 { return 42 }, 0); err != nil {
		t.Fatalf("virtual EqualFloat32 should vacuously pass: %v", err)
	}
	// Bounds are still enforced on virtual buffers.
	defer func() {
		if recover() == nil {
			t.Fatal("expected bounds panic on virtual buffer")
		}
	}()
	v.CopyTo(m, 0, 512, 1024)
}

func TestAccumulateFrom(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	b := NewBuffer(1, "b", 16)
	a.FillPattern(func(i int64) float32 { return float32(i) })
	b.FillPattern(func(i int64) float32 { return float32(10 * i) })
	a.AccumulateFrom(b, 0, 0, 16)
	if err := a.EqualFloat32(func(i int64) float32 { return float32(11 * i) }, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateOddLengthPanics(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	b := NewBuffer(1, "b", 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.AccumulateFrom(b, 0, 0, 6)
}

func TestEqualFloat32Mismatch(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	a.FillFloat32(1)
	if err := a.EqualFloat32(func(int64) float32 { return 1 }, 0); err != nil {
		t.Fatalf("unexpected mismatch: %v", err)
	}
	if err := a.EqualFloat32(func(int64) float32 { return 2 }, 1e-6); err == nil {
		t.Fatal("expected mismatch error")
	}
}

// TestMultimemReduceIntoBroadcastFrom exercises the two unfused switch
// halves: ld_reduce into a local buffer, then multimem.st from one.
func TestMultimemReduceIntoBroadcastFrom(t *testing.T) {
	const ranks = 4
	var members []*Buffer
	for r := 0; r < ranks; r++ {
		b := NewBuffer(r, "m", 32)
		rr := r
		b.FillPattern(func(i int64) float32 { return float32(rr+1) * float32(i+1) })
		members = append(members, b)
	}
	mm, err := NewMultimem("grp", members)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBuffer(0, "dst", 32)
	mm.ReduceInto(dst, 0, 0, 32)
	// sum over r of (r+1)*(i+1) = 10*(i+1)
	if err := dst.EqualFloat32(func(i int64) float32 { return 10 * float32(i+1) }, 1e-5); err != nil {
		t.Fatal(err)
	}
	src := NewBuffer(2, "src", 32)
	src.FillFloat32(-3)
	mm.BroadcastFrom(src, 0, 0, 32)
	for r := 0; r < ranks; r++ {
		if err := members[r].EqualFloat32(func(int64) float32 { return -3 }, 0); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestMultimemSizeMismatch(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	b := NewBuffer(1, "b", 32)
	if _, err := NewMultimem("bad", []*Buffer{a, b}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := NewMultimem("empty", nil); err == nil {
		t.Fatal("expected empty-group error")
	}
}

// Property: copy then accumulate equals 2x source for any offset-aligned
// subrange.
func TestCopyAccumulateProperty(t *testing.T) {
	f := func(seed uint8, nEl uint8) bool {
		n := int64(nEl%32+1) * 4
		src := NewBuffer(0, "s", n)
		dst := NewBuffer(1, "d", n)
		src.FillPattern(func(i int64) float32 { return float32(seed) + float32(i) })
		src.CopyTo(dst, 0, 0, n)
		dst.AccumulateFrom(src, 0, 0, n)
		return dst.EqualFloat32(func(i int64) float32 {
			return 2 * (float32(seed) + float32(i))
		}, 1e-5) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// group builds a multimem group of len(materialized) members of size bytes;
// materialized members get a per-member pattern, the rest are virtual.
func group(t testing.TB, name string, size int64, materialized []bool) *Multimem {
	t.Helper()
	members := make([]*Buffer, len(materialized))
	for r, mat := range materialized {
		if !mat {
			members[r] = NewVirtualBuffer(r, name, size)
			continue
		}
		members[r] = NewBuffer(r, name, size)
		rr := r
		members[r].FillPattern(func(i int64) float32 { return float32(rr+1)*0.5 + float32(i%7) })
	}
	mm, err := NewMultimem(name, members)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

// snapshot copies every member's bytes (nil for virtual members).
func snapshot(m *Multimem) [][]byte {
	out := make([][]byte, len(m.Members))
	for i, b := range m.Members {
		if b.data != nil {
			out[i] = bytes.Clone(b.data)
		}
	}
	return out
}

// reduceBroadcastOracle is the original per-element ReduceBroadcast: every
// element checks every src member's bounds before skipping virtual data.
// It is the reference the range-checked ReduceBroadcast must match.
func reduceBroadcastOracle(src, dst *Multimem, dstOff, srcOff, n int64) {
	if n%4 != 0 {
		panic("oracle: length not a multiple of 4")
	}
	for _, d := range dst.Members {
		d.check(dstOff, n)
	}
	for i := int64(0); i < n; i += 4 {
		var sum float32
		any := false
		for _, sb := range src.Members {
			sb.check(srcOff+i, 4)
			if sb.data == nil {
				continue
			}
			any = true
			sum += math.Float32frombits(binary.LittleEndian.Uint32(sb.data[srcOff+i:]))
		}
		if !any {
			continue
		}
		bits := math.Float32bits(sum)
		for _, d := range dst.Members {
			if d.data != nil {
				binary.LittleEndian.PutUint32(d.data[dstOff+i:], bits)
			}
		}
	}
}

// panics reports whether fn panics.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

func TestReduceBroadcast(t *testing.T) {
	all := []bool{true, true, true, true}
	none := []bool{false, false, false, false}
	mixed := []bool{true, false, true, false}
	cases := []struct {
		name              string
		src, dst          []bool
		dstOff, srcOff, n int64
		wantPanic         bool
		wantDstUntouched  bool
	}{
		{name: "all materialized", src: all, dst: all, dstOff: 8, srcOff: 16, n: 32},
		{name: "mixed src and dst", src: mixed, dst: []bool{false, true, true, false}, dstOff: 0, srcOff: 4, n: 40},
		{name: "all-virtual src", src: none, dst: all, dstOff: 0, srcOff: 0, n: 64, wantDstUntouched: true},
		{name: "all-virtual dst", src: all, dst: none, dstOff: 0, srcOff: 0, n: 64},
		{name: "zero length skips src bounds", src: none, dst: all, dstOff: 64, srcOff: 1 << 20, n: 0, wantDstUntouched: true},
		{name: "virtual src out of bounds", src: none, dst: all, dstOff: 0, srcOff: 40, n: 32, wantPanic: true},
		{name: "virtual src negative offset", src: none, dst: none, dstOff: 0, srcOff: -4, n: 8, wantPanic: true},
		{name: "virtual dst out of bounds", src: all, dst: none, dstOff: 36, srcOff: 0, n: 32, wantPanic: true},
		{name: "mixed dst out of bounds", src: mixed, dst: mixed, dstOff: 60, srcOff: 0, n: 8, wantPanic: true},
		{name: "length not a multiple of 4", src: all, dst: all, dstOff: 0, srcOff: 0, n: 6, wantPanic: true},
		{name: "virtual length not a multiple of 4", src: none, dst: none, dstOff: 0, srcOff: 0, n: 10, wantPanic: true},
	}
	const size = 64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := group(t, "src", size, tc.src)
			got := group(t, "dst", size, tc.dst)
			want := group(t, "dst", size, tc.dst)
			before := snapshot(got)
			if p := panics(func() { ReduceBroadcast(src, got, tc.dstOff, tc.srcOff, tc.n) }); p != tc.wantPanic {
				t.Fatalf("panicked = %v, want %v", p, tc.wantPanic)
			}
			if tc.wantPanic {
				if !panics(func() { reduceBroadcastOracle(src, want, tc.dstOff, tc.srcOff, tc.n) }) {
					t.Fatal("oracle accepts a range ReduceBroadcast rejects")
				}
				return
			}
			reduceBroadcastOracle(src, want, tc.dstOff, tc.srcOff, tc.n)
			g, w := snapshot(got), snapshot(want)
			for r := range g {
				if !bytes.Equal(g[r], w[r]) {
					t.Fatalf("dst member %d differs from the per-element oracle", r)
				}
				if tc.wantDstUntouched && !bytes.Equal(g[r], before[r]) {
					t.Fatalf("dst member %d modified", r)
				}
			}
		})
	}
}

// Spot-check the values, not just agreement with the oracle: every
// materialized dst member holds the sum over the materialized src members.
func TestReduceBroadcastValues(t *testing.T) {
	src := group(t, "src", 32, []bool{true, false, true})
	dst := group(t, "dst", 32, []bool{false, true, true})
	ReduceBroadcast(src, dst, 0, 0, 32)
	want := func(i int64) float32 { return (0.5 + float32(i%7)) + (1.5 + float32(i%7)) }
	for r, d := range dst.Members {
		if err := d.EqualFloat32(want, 0); err != nil {
			t.Fatalf("member %d: %v", r, err)
		}
	}
}

// Property: on random groups, materialization masks, offsets and lengths,
// ReduceBroadcast panics exactly when the per-element oracle does and
// otherwise leaves identical dst bytes.
func TestReduceBroadcastMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 96
		members := 1 + rng.Intn(8)
		mask := func() []bool {
			m := make([]bool, members)
			for i := range m {
				m[i] = rng.Intn(2) == 0
			}
			return m
		}
		srcMask, dstMask := mask(), mask()
		// Mostly aligned in-bounds ranges, with some out-of-bounds, negative
		// and unaligned ones.
		off := func() int64 { return int64(rng.Intn(size/4+3)-1) * 4 }
		dstOff, srcOff := off(), off()
		n := int64(rng.Intn(size/4+2)) * 4
		if rng.Intn(8) == 0 {
			n += int64(1 + rng.Intn(3))
		}
		src := group(t, "src", size, srcMask)
		got := group(t, "dst", size, dstMask)
		want := group(t, "dst", size, dstMask)
		gp := panics(func() { ReduceBroadcast(src, got, dstOff, srcOff, n) })
		wp := panics(func() { reduceBroadcastOracle(src, want, dstOff, srcOff, n) })
		if gp || wp {
			return gp == wp
		}
		g, w := snapshot(got), snapshot(want)
		for r := range g {
			if !bytes.Equal(g[r], w[r]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMultimemReduceIntoVirtual(t *testing.T) {
	const size = 64
	// Mixed members: the virtual ones contribute nothing.
	mixed := group(t, "m", size, []bool{true, false, true, false})
	dst := NewBuffer(0, "dst", size)
	mixed.ReduceInto(dst, 0, 0, size)
	if err := dst.EqualFloat32(func(i int64) float32 { return 2 + 2*float32(i%7) }, 0); err != nil {
		t.Fatal(err)
	}
	// No materialized member: the materialized dst range holds the empty sum.
	none := group(t, "v", size, []bool{false, false})
	dst.FillFloat32(5)
	none.ReduceInto(dst, 16, 0, 32)
	if err := dst.EqualFloat32(func(i int64) float32 {
		if i >= 4 && i < 12 {
			return 0
		}
		return 5
	}, 0); err != nil {
		t.Fatal(err)
	}
	// Bounds on virtual members are checked even when dst is virtual too.
	vdst := NewVirtualBuffer(0, "vdst", size)
	none.ReduceInto(vdst, 0, 0, size)
	if !panics(func() { none.ReduceInto(vdst, 0, 8, size) }) {
		t.Fatal("out-of-bounds range on virtual members accepted")
	}
	if !panics(func() { mixed.ReduceInto(dst, 0, 0, 6) }) {
		t.Fatal("length not a multiple of 4 accepted")
	}
}
