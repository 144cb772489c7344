package collective

import (
	"fmt"
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func runAllGather(t *testing.T, env *topology.Env, algo Algorithm, shard int64, iters int) sim.Duration {
	t.Helper()
	m := machine.New(env)
	m.MaterializeLimit = 1 << 40
	c := New(m)
	n := c.Ranks()
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", shard)
		out[r] = m.Alloc(r, "out", shard*int64(n))
	}
	FillInputs(in, pattern)
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	var last sim.Duration
	for it := 0; it < iters; it++ {
		d, err := c.Run(ex)
		if err != nil {
			t.Fatalf("%s iter %d: %v", algo.Name(), it, err)
		}
		if err := CheckAllGather(out, shard, pattern, 0); err != nil {
			t.Fatalf("%s iter %d: %v", algo.Name(), it, err)
		}
		last = d
	}
	return last
}

func TestAllGatherAllPairsLL(t *testing.T) {
	for _, shard := range []int64{128, 8 << 10} {
		runAllGather(t, topology.A100_40G(1), &AllGatherAllPairsLL{}, shard, 3)
		runAllGather(t, topology.MI300x(1), &AllGatherAllPairsLL{}, shard, 2)
	}
}

func TestAllGatherAllPairsHB(t *testing.T) {
	for _, shard := range []int64{8 << 10, 256 << 10} {
		runAllGather(t, topology.A100_40G(1), &AllGatherAllPairsHB{}, shard, 3)
		runAllGather(t, topology.H100(1), &AllGatherAllPairsHB{}, shard, 2)
	}
}

func TestAllGatherRing(t *testing.T) {
	for _, shard := range []int64{64 << 10, 256 << 10} {
		runAllGather(t, topology.A100_40G(1), &AllGatherRing{}, shard, 2)
	}
}

func TestAllGatherSwitch(t *testing.T) {
	runAllGather(t, topology.H100(1), &AllGatherSwitch{}, 64<<10, 3)
}

func TestAllGatherHier(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		runAllGather(t, topology.A100_40G(nodes), &AllGatherHier{}, 32<<10, 2)
	}
}

func runReduceScatter(t *testing.T, env *topology.Env, algo Algorithm, slice int64, iters int) sim.Duration {
	t.Helper()
	m := machine.New(env)
	m.MaterializeLimit = 1 << 40
	c := New(m)
	n := c.Ranks()
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", slice*int64(n))
		out[r] = m.Alloc(r, "out", slice)
	}
	FillInputs(in, pattern)
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	var last sim.Duration
	for it := 0; it < iters; it++ {
		d, err := c.Run(ex)
		if err != nil {
			t.Fatalf("%s iter %d: %v", algo.Name(), it, err)
		}
		if err := CheckReduceScatter(out, pattern, 1e-4); err != nil {
			t.Fatalf("%s iter %d: %v", algo.Name(), it, err)
		}
		last = d
	}
	return last
}

func TestReduceScatterAllPairsLL(t *testing.T) {
	runReduceScatter(t, topology.A100_40G(1), &ReduceScatterAllPairsLL{}, 4<<10, 3)
}

func TestReduceScatterAllPairsHB(t *testing.T) {
	runReduceScatter(t, topology.A100_40G(1), &ReduceScatterAllPairsHB{}, 128<<10, 3)
	runReduceScatter(t, topology.H100(1), &ReduceScatterAllPairsHB{}, 32<<10, 2)
}

func TestReduceScatterRing(t *testing.T) {
	runReduceScatter(t, topology.A100_40G(1), &ReduceScatterRing{}, 64<<10, 2)
}

func TestSelectionBySize(t *testing.T) {
	single := New(machine.New(topology.A100_40G(1)))
	if got := single.SelectAllReduce(1 << 10).Name(); got != (&AllReduce1PA{}).Name() {
		t.Fatalf("1KB selection = %s", got)
	}
	if got := single.SelectAllReduce(256 << 10).Name(); got != (&AllReduce2PALL{}).Name() {
		t.Fatalf("256KB selection = %s", got)
	}
	if got := single.SelectAllReduce(1 << 30).Name(); got != (&AllReduce2PR{}).Name() {
		t.Fatalf("1GB selection = %s", got)
	}
	h100 := New(machine.New(topology.H100(1)))
	if got := h100.SelectAllReduce(64 << 20).Name(); got != (&AllReduce2PASwitch{}).Name() {
		t.Fatalf("H100 64MB selection = %s", got)
	}
	multi := New(machine.New(topology.A100_40G(2)))
	if got := multi.SelectAllReduce(1 << 10).Name(); got != (&AllReduce2PHLL{}).Name() {
		t.Fatalf("multi-node 1KB selection = %s", got)
	}
	if got := multi.SelectAllReduce(64 << 20).Name(); got != (&AllReduce2PHHB{}).Name() {
		t.Fatalf("multi-node 64MB selection = %s", got)
	}
}

// The one-call Collective API must produce correct results end-to-end.
func TestCollectiveAPIOneCall(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 1 << 40
	c := New(m)
	n := c.Ranks()
	size := int64(32 << 10)
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	FillInputs(in, pattern)
	d, err := c.AllReduce(in, out)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("duration %d", d)
	}
	if err := CheckAllReduce(out, pattern, 1e-4); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveAPIAllGatherReduceScatter runs the one-call AllGather and
// ReduceScatter at one size per branch of their H100 1n8g selectors. Rows
// up to the machine's default materialize limit carry data and are checked
// element by element; the largest branch of each (multimem AllGather, ring
// ReduceScatter) needs buffers of 16 MB and more per rank, which run
// virtual, so those rows pin the selection and a clean run only.
func TestCollectiveAPIAllGatherReduceScatter(t *testing.T) {
	const ranks = 8
	for _, tc := range []struct {
		total  int64 // AllGather output, ReduceScatter input, per rank
		gather bool
		want   Algorithm
	}{
		{128 << 10, true, &AllGatherAllPairsLL{}},
		{1 << 20, true, &AllGatherAllPairsHB{}},
		{128 << 20, true, &AllGatherSwitch{}},
		{128 << 10, false, &ReduceScatterAllPairsLL{}},
		{1 << 20, false, &ReduceScatterAllPairsHB{}},
		{256 << 20, false, &ReduceScatterRing{}},
	} {
		m := machine.New(topology.H100(1))
		c := New(m)
		in := make([]*mem.Buffer, ranks)
		out := make([]*mem.Buffer, ranks)
		inSize, outSize := tc.total, tc.total/ranks
		if tc.gather {
			inSize, outSize = outSize, inSize
		}
		for r := range ranks {
			in[r] = m.Alloc(r, "in", inSize)
			out[r] = m.Alloc(r, "out", outSize)
		}
		FillInputs(in, pattern)
		var (
			got          Algorithm
			d            sim.Duration
			err, checked error
		)
		if tc.gather {
			got = c.SelectAllGather(tc.total)
			d, err = c.AllGather(in, out)
			checked = CheckAllGather(out, inSize, pattern, 0)
		} else {
			got = c.SelectReduceScatter(tc.total)
			d, err = c.ReduceScatter(in, out)
			checked = CheckReduceScatter(out, pattern, 1e-4)
		}
		label := fmt.Sprintf("%s %d bytes", tc.want.Name(), tc.total)
		if got.Name() != tc.want.Name() {
			t.Fatalf("%s: selected %s", label, got.Name())
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if d <= 0 {
			t.Fatalf("%s: duration %d", label, d)
		}
		if checked != nil {
			t.Fatalf("%s: %v", label, checked)
		}
		if (tc.total <= machine.DefaultMaterializeLimit) != out[0].Materialized() {
			t.Fatalf("%s: materialized = %v", label, out[0].Materialized())
		}
	}
}

// TestCollectiveAPIRejectsMalformedBuffers: the one-call API returns the
// buffer validators' errors for an empty buffer list or a nil rank-0
// buffer instead of indexing them.
func TestCollectiveAPIRejectsMalformedBuffers(t *testing.T) {
	m := machine.New(topology.H100(1))
	c := New(m)
	bufs := func(name string) []*mem.Buffer {
		b := make([]*mem.Buffer, c.Ranks())
		for r := range b {
			b[r] = m.Alloc(r, name, 64<<10)
		}
		return b
	}
	nilFirst := bufs("in")
	nilFirst[0] = nil
	for _, tc := range []struct {
		name    string
		call    func(in, out []*mem.Buffer) (sim.Duration, error)
		in, out []*mem.Buffer
		want    string
	}{
		{"AllReduce empty", c.AllReduce, nil, bufs("out"), "collective: 0 input buffers for 8 ranks"},
		{"AllGather empty", c.AllGather, bufs("in"), []*mem.Buffer{}, "collective: 0 output buffers for 8 ranks"},
		{"ReduceScatter empty", c.ReduceScatter, []*mem.Buffer{}, bufs("out"), "collective: 0 input buffers for 8 ranks"},
		{"Broadcast empty", func(in, out []*mem.Buffer) (sim.Duration, error) { return c.Broadcast(in, out, 0) }, nil, bufs("out"), "collective: 0 input buffers for 8 ranks"},
		{"AllReduce nil rank 0", c.AllReduce, nilFirst, bufs("out"), "collective: nil input buffer for rank 0"},
	} {
		_, err := tc.call(tc.in, tc.out)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
