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
	const size = 32 << 20
	m := machine.New(topology.H100(1))
	m.MaterializeLimit = 0
	c := New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := range in {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	ex, err := (&AllReduce2PASwitch{}).Prepare(c, in, out)
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
