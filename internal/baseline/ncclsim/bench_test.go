package ncclsim

import (
	"testing"

	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/topology"
)

// BenchmarkNCCLRingAllReduce times one 4 MB NCCL-sim ring AllReduce
// (Simple protocol) on A100-40G 2n16g with virtual buffers
// (MaterializeLimit = 0), the baseline case the paper sweeps price most.
// It gates the host cost of the two-sided chunk pipeline: every chunk of
// every hop books the fabric, schedules its landing and releases its slot,
// so an allocation per chunk shows as thousands per op. ns/op is simulator
// wall time; the virtual duration is reported as a custom metric.
func BenchmarkNCCLRingAllReduce(b *testing.B) {
	const size = 4 << 20
	m := machine.New(topology.A100_40G(2))
	m.MaterializeLimit = 0
	c := collective.New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := range in {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	ex, err := New(c, 0).PrepareAllReduceRing(in, out, twosided.ProtoSimple)
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
