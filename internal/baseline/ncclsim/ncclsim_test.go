package ncclsim

import (
	"testing"

	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/topology"
)

// TestRingOrders checks the ring tables every ring kernel indexes: on
// single-node, multi-node and stride-ring (MI300x mesh) machines, each
// channel's order is one cycle through all ranks that follows ringNext,
// pos inverts it, and every rank has a conn to its successor.
func TestRingOrders(t *testing.T) {
	for _, env := range []*topology.Env{
		topology.A100_40G(1), topology.A100_40G(2), topology.A100_40G(4), topology.MI300x(1),
	} {
		m := machine.New(env)
		m.MaterializeLimit = 0
		l := New(collective.New(m), 0)
		n := l.C.Ranks()
		for b, g := range l.rings(l.Channels, twosided.ProtoSimple, simpleChunk) {
			seen := make([]bool, n)
			for i, r := range g.order {
				if seen[r] {
					t.Fatalf("%s channel %d: rank %d twice in %v", env.Name, b, r, g.order)
				}
				seen[r] = true
				if g.pos[r] != i {
					t.Fatalf("%s channel %d: pos[%d] = %d, want %d", env.Name, b, r, g.pos[r], i)
				}
				if next := g.order[(i+1)%n]; l.ringNext(r, b) != next {
					t.Fatalf("%s channel %d: order %v does not follow ringNext at rank %d", env.Name, b, g.order, r)
				}
				if g.send[r] == nil {
					t.Fatalf("%s channel %d: rank %d has no conn to its successor", env.Name, b, r)
				}
				if g.prev(g.order[(i+1)%n], 1) != r {
					t.Fatalf("%s channel %d: prev of %d is not %d", env.Name, b, g.order[(i+1)%n], r)
				}
			}
			if len(g.order) != n || g.order[0] != 0 {
				t.Fatalf("%s channel %d: order %v is not a cycle from rank 0 over %d ranks", env.Name, b, g.order, n)
			}
		}
	}
}
