package collective

import (
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/topology"
)

// BenchmarkSwitchAllReduceVirtual times one 32 MB mscclpp-2PA-Switch
// AllReduce on H100 1n8g with virtual buffers (MaterializeLimit = 0), the
// configuration every paper sweep and perfbench case runs. It gates the
// host cost of the NVLS data path: with nothing materialized, the fused
// ld_reduce + multimem.st must cost O(members) per call, not O(bytes).
// ns/op is simulator wall time; the virtual duration is reported as a
// custom metric and does not depend on the host.
func BenchmarkSwitchAllReduceVirtual(b *testing.B) {
	benchAllReduceVirtual(b, topology.H100(1), &AllReduce2PASwitch{}, 32<<20)
}

// BenchmarkAllReduce2PALLVirtual times one 1 MB mscclpp-2PA-LL AllReduce on
// H100 1n8g with virtual buffers: both of its phases are LL all-pairs
// phases, so a per-peer or per-call allocation in that phase shows in
// allocs/op.
func BenchmarkAllReduce2PALLVirtual(b *testing.B) {
	benchAllReduceVirtual(b, topology.H100(1), &AllReduce2PALL{}, 1<<20)
}

// BenchmarkAllReduce2PHHBVirtual times one 4 MB mscclpp-2PH-HB AllReduce on
// A100-40G 2n16g with virtual buffers: its cross-node phases push puts and
// signals through PortChannel proxies, so a per-push or per-request
// allocation on the proxy path shows in allocs/op.
func BenchmarkAllReduce2PHHBVirtual(b *testing.B) {
	benchAllReduceVirtual(b, topology.A100_40G(2), &AllReduce2PHHB{}, 4<<20)
}

// benchAllReduceVirtual times repeated invocations of one AllReduce of size
// bytes per rank on env with every buffer virtual.
func benchAllReduceVirtual(b *testing.B, env *topology.Env, algo Algorithm, size int64) {
	m := machine.New(env)
	m.MaterializeLimit = 0
	c := New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := range in {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		d, err := c.Run(ex)
		if err != nil {
			b.Fatal(err)
		}
		virt = float64(d)
	}
	b.ReportMetric(virt, "virtual-ns")
}
