package twosided_test

import (
	"testing"

	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/machine"
	"mscclpp/internal/topology"
)

// BenchmarkExchange times the exchange hot path: two long-lived kernels on
// A100-40G 1n8g, ranks 0 and 1, move b.N chunks each way through one Conn
// pair (ProtoSimple, virtual buffers), one Exchange call with a send and a
// receive leg per chunk. Every chunk waits for its slot and its data,
// books the hop, lands and releases the slot, so an allocation per call or
// per chunk shows as at least 1 allocs/op; CI gates it at 0 at
// -benchtime 100000x, where the launch's fixed allocations round away.
func BenchmarkExchange(b *testing.B) {
	const chunk = 64 << 10
	m := machine.New(topology.A100_40G(1))
	m.MaterializeLimit = 0
	conns := [2]*twosided.Conn{
		twosided.NewConn(m, 0, 1, twosided.Config{Chunk: chunk}),
		twosided.NewConn(m, 1, 0, twosided.Config{Chunk: chunk}),
	}
	for r := range conns {
		send, recv := conns[r], conns[1-r]
		buf := m.Alloc(r, "buf", 2*chunk)
		m.GPUs[r].Kernel("exchange", 1, func(k *machine.Kernel) {
			for i := 0; i < b.N; i++ {
				twosided.Exchange(k,
					[]twosided.Leg{{Conn: send, Buf: buf, N: chunk}},
					[]twosided.Leg{{Conn: recv, Buf: buf, Off: chunk, N: chunk}})
			}
		}).Start()
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
