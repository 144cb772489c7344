// Package collective implements the MSCCL++ collectives library (paper
// Section 6): AllReduce, AllGather and ReduceScatter algorithms written
// against the Primitive API, plus the NCCL-style Collective API with
// size-based algorithm selection.
//
// Algorithms implemented (names follow the paper):
//
//   - 1PA: one-phase all-pairs, LL protocol — small single-node messages.
//   - 2PA: two-phase all-pairs (ReduceScatter + AllGather), LL and HB
//     MemoryChannel variants and a SwitchChannel (NVLS) variant.
//   - 2PR: two-phase ring over PortChannel with reduction overlapped with
//     DMA-copy (paper Figure 6) — large single-node messages.
//   - 2PH: two-phase hierarchical, LL (small) and HB (large) variants —
//     multi-node messages.
//
// Buffer conventions match NCCL: AllReduce takes equal-sized in/out buffers
// of S bytes; AllGather takes S/N-byte shards in and S-byte out; ReduceScatter
// takes S bytes in and S/N out.
//
// An algorithm is only its per-rank data movement. Its Prepare validates
// the buffers and the machine (Comm.fits), allocates per-rank scratch
// (Comm.alloc), picks the thread-block count with threadBlocks' clamp (only
// AllReduce1PA and AllReduce2PAHB take a TB override) and builds its
// channels once: meshes over rank groups, which fix every member's peer
// order, or rings. It also builds its kernel once, one body on every rank
// with machine.Machine.Kernel, and its Exec starts that prepared launch for
// every invocation, so a relaunch allocates nothing. The body indexes what
// Prepare built and synchronizes through the mesh's sync or the channels'
// signal and wait; a value that changes per invocation, such as an LL
// packet flag, lives in Prepare's state and the body reads it there.
//
// The LL all-pairs phase (packet-put to every peer's scratch slot, copy the
// own share, await each peer's packets and reduce or copy them) has one
// home, llAllPairs: 1PA, both phases of 2PA-LL, RS-AllPairs-LL,
// AG-AllPairs-LL and the node-local phases of 2PH-LL call it.
package collective

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// Comm wraps a machine with a communicator; all algorithm setups hang off it.
type Comm struct {
	M *machine.Machine
	C *core.Communicator
}

// New returns a collective communicator over all ranks of m.
func New(m *machine.Machine) *Comm {
	return &Comm{M: m, C: core.NewCommunicator(m)}
}

// Ranks returns the world size.
func (c *Comm) Ranks() int { return len(c.M.GPUs) }

// Exec is a prepared collective: channels, scratch and kernels are set up
// once; launch starts one timed invocation's kernels.
type Exec struct {
	Name   string
	launch func()
}

// NewExec wraps a launch function as an Exec: usually a prepared kernel's
// machine.Launch.Start, or a closure that advances per-invocation state and
// then starts it. Every algorithm here and in the baseline libraries
// (ncclsim, mscclsim) builds its Exec this way, so benchmarks time every
// library uniformly.
func NewExec(name string, launch func()) *Exec {
	return &Exec{Name: name, launch: launch}
}

// Run performs one invocation of the prepared collective and returns its
// virtual duration (launch through last data arrival).
func (c *Comm) Run(ex *Exec) (sim.Duration, error) {
	start := c.M.Engine.Now()
	ex.launch()
	if err := c.M.Run(); err != nil {
		return 0, fmt.Errorf("collective %s: %w", ex.Name, err)
	}
	return c.M.Engine.Now() - start, nil
}

// Algorithm prepares executions of one collective algorithm for a fixed set
// of buffers.
type Algorithm interface {
	Name() string
	// Prepare validates buffers, builds channels/scratch, and returns a
	// reusable Exec. in and out are indexed by rank.
	Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error)
}

// validateEqualSized checks per-rank buffer arrays.
func validateEqualSized(c *Comm, bufs []*mem.Buffer, what string) (int64, error) {
	if len(bufs) != c.Ranks() {
		return 0, fmt.Errorf("collective: %d %s buffers for %d ranks", len(bufs), what, c.Ranks())
	}
	for r, b := range bufs {
		if b == nil {
			return 0, fmt.Errorf("collective: nil %s buffer for rank %d", what, r)
		}
		if b.Rank != r {
			return 0, fmt.Errorf("collective: %s buffer %d lives on rank %d", what, r, b.Rank)
		}
		if b.Size() != bufs[0].Size() {
			return 0, fmt.Errorf("collective: %s buffer sizes differ (%d vs %d)", what, b.Size(), bufs[0].Size())
		}
	}
	return bufs[0].Size(), nil
}

// validateAllReduceBufs checks the AllReduce convention, equal-sized in and
// out buffers of S bytes with S a multiple of 4*ranks, and that a fits the
// machine need names. It returns S.
func validateAllReduceBufs(c *Comm, a Algorithm, need int, in, out []*mem.Buffer) (int64, error) {
	sIn, err := validateEqualSized(c, in, "input")
	if err != nil {
		return 0, err
	}
	sOut, err := validateEqualSized(c, out, "output")
	if err != nil {
		return 0, err
	}
	if sIn != sOut {
		return 0, fmt.Errorf("collective: allreduce in %d bytes != out %d bytes", sIn, sOut)
	}
	n := int64(c.Ranks())
	if sIn%(4*n) != 0 {
		return 0, fmt.Errorf("collective: size %d not divisible by 4*ranks", sIn)
	}
	if err := c.fits(a, need); err != nil {
		return 0, err
	}
	return sIn, nil
}

// validateShardBufs checks the AllGather and ReduceScatter conventions:
// every shards buffer holds S/N bytes, a nonzero multiple of 4, and every
// whole buffer S bytes (AllGather gathers in into out, ReduceScatter
// scatters in into out). It also checks that a fits the machine need
// names, and returns the shard size S/N.
func validateShardBufs(c *Comm, a Algorithm, need int, shards, whole []*mem.Buffer) (int64, error) {
	shard, err := validateEqualSized(c, shards, "shard")
	if err != nil {
		return 0, err
	}
	total, err := validateEqualSized(c, whole, "whole")
	if err != nil {
		return 0, err
	}
	if total != shard*int64(c.Ranks()) || shard%4 != 0 || shard == 0 {
		return 0, fmt.Errorf("collective: %d-byte buffers do not split into %d usable %d-byte shards",
			total, c.Ranks(), shard)
	}
	if err := c.fits(a, need); err != nil {
		return 0, err
	}
	return shard, nil
}

// Machines an algorithm runs on, for Comm.fits.
const (
	oneNode   = iota // a single node
	multiNode        // two or more nodes
	nvSwitch         // a single node with switch-mapped I/O
)

// fits reports a machine that algorithm a, which needs machine kind need,
// cannot run on.
func (c *Comm) fits(a Algorithm, need int) error {
	switch env := c.M.Env; {
	case need == multiNode && env.Nodes < 2:
		return fmt.Errorf("%s: multi-node only", a.Name())
	case need != multiNode && env.Nodes != 1:
		return fmt.Errorf("%s: single-node only", a.Name())
	case need == nvSwitch && !c.M.Fabric.HasSwitch():
		return fmt.Errorf("%s: %s has no switch-mapped I/O", a.Name(), env.Name)
	}
	return nil
}

// threadBlocks is the thread-block rule: n, the algorithm's block estimate
// (usually its bytes over bytes per block), clamped to [lo, hi].
func threadBlocks(n int64, lo, hi int) int {
	return int(min(max(n, int64(lo)), int64(hi)))
}

// alloc allocates a size-byte buffer named name on every rank.
func (c *Comm) alloc(name string, size int64) []*mem.Buffer {
	bufs := make([]*mem.Buffer, c.Ranks())
	for r := range bufs {
		bufs[r] = c.M.Alloc(r, name, size)
	}
	return bufs
}

// mesh is a full set of pairwise channels among a rank subset, with each
// member's peer order fixed at Prepare so kernel bodies only index it.
type mesh[C core.Channel] struct {
	chans [][]C   // [rank][peer], global ranks
	peers [][]int // each member's peers, rotated as PeersOf
}

// newMesh builds pairwise memory channels among ranks; the direction a->b
// puts src[a] (on a) into dst[b] (on b).
func newMesh(c *Comm, ranks []int, src, dst []*mem.Buffer) *mesh[*core.MemoryChannel] {
	return buildMesh(c, ranks, func(a, b int) (*core.MemoryChannel, *core.MemoryChannel) {
		return c.C.NewMemoryChannelPairEx(a, b, src[a], dst[b], src[b], dst[a])
	})
}

// newPortMesh builds pairwise port channels among ranks, bound like newMesh.
func newPortMesh(c *Comm, ranks []int, src, dst []*mem.Buffer) *mesh[*core.PortChannel] {
	return buildMesh(c, ranks, portPair(c, src, dst))
}

// portPair connects a and b with port channels: a puts src[a] into dst[b]
// and b puts src[b] into dst[a].
func portPair(c *Comm, src, dst []*mem.Buffer) func(a, b int) (*core.PortChannel, *core.PortChannel) {
	return func(a, b int) (*core.PortChannel, *core.PortChannel) {
		return c.C.NewPortChannelPairEx(a, b, src[a], dst[b], src[b], dst[a])
	}
}

// buildMesh connects every pair of ranks with pair(a, b), which returns
// a's endpoint towards b and b's towards a.
func buildMesh[C core.Channel](c *Comm, ranks []int, pair func(a, b int) (C, C)) *mesh[C] {
	n := c.Ranks()
	m := &mesh[C]{chans: make([][]C, n), peers: make([][]int, n)}
	for _, r := range ranks {
		m.chans[r] = make([]C, n)
		m.peers[r] = PeersOf(ranks, r)
	}
	for i, a := range ranks {
		for _, b := range ranks[i+1:] {
			m.chans[a][b], m.chans[b][a] = pair(a, b)
		}
	}
	return m
}

// at returns rank r's channel to peer p.
func (m *mesh[C]) at(r, p int) C { return m.chans[r][p] }

// sync is a rank barrier over the mesh: block 0 of rank r signals every
// peer, then waits on every peer, and all of r's blocks meet at a grid
// barrier after it.
func (m *mesh[C]) sync(k *machine.Kernel, r int) {
	if k.Block == 0 {
		for _, p := range m.peers[r] {
			m.chans[r][p].Signal(k)
		}
		for _, p := range m.peers[r] {
			m.chans[r][p].Wait(k)
		}
	}
	k.GridBarrier()
}

// region is a part of a rank's buffer indexed by peer: the part for the
// peer with local index l starts at off + l*stride.
type region struct {
	buf         *mem.Buffer
	off, stride int64
}

// part returns the offset of the part for local index l.
func (g region) part(l int) int64 { return g.off + int64(l)*g.stride }

// llAllPairs is one LL all-pairs phase of rank r over mesh m, moving n bytes
// per peer with packet flag flag. Rank r packet-puts src's part for each
// peer p into slot l(r) of p's scratch, copies its own part of src into dst
// unless it is already in place, then awaits each peer's packets and
// reduces (or, if !reduce, copies) slot l(p) of its scratch into dst's part
// for p. l(p) is p's local index; every scratch slot holds n bytes.
func llAllPairs(k *machine.Kernel, m *mesh[*core.MemoryChannel], r int, scratch []*mem.Buffer,
	src, dst region, n int64, flag uint64, reduce bool) {
	g := k.Machine().Env.GPUsPerNode
	l := r % g
	for _, p := range m.peers[r] {
		m.at(r, p).PutPacketsBuf(k, scratch[p], int64(l)*n, src.buf, src.part(p%g), n, k.Block, k.NumBlocks, flag)
	}
	if src.buf != dst.buf || src.part(l) != dst.part(l) {
		k.CopyShard(dst.buf, dst.part(l), src.buf, src.part(l), n, k.Block, k.NumBlocks)
	}
	for _, p := range m.peers[r] {
		m.at(r, p).AwaitPackets(k, flag, uint64(n))
		lp := p % g
		if reduce {
			k.ReduceShard(dst.buf, dst.part(lp), scratch[r], int64(lp)*n, n, k.Block, k.NumBlocks)
		} else {
			k.CopyShard(dst.buf, dst.part(lp), scratch[r], int64(lp)*n, n, k.Block, k.NumBlocks)
		}
	}
}

// newRing connects every rank r to r+1 (mod n) with pair(r, r+1): send[r]
// is r's endpoint towards its successor, recv[r] its endpoint from its
// predecessor.
func newRing[C core.Channel](n int, pair func(a, b int) (C, C)) (send, recv []C) {
	send, recv = make([]C, n), make([]C, n)
	for r := 0; r < n; r++ {
		next := (r + 1) % n
		send[r], recv[next] = pair(r, next)
	}
	return send, recv
}

// PeersOf returns r's peers within the group ranks in deterministic order,
// rotated so each rank starts with a different peer (spreading load, paper
// §7.2). It panics if r is not in ranks.
func PeersOf(ranks []int, r int) []int {
	idx := -1
	for i, x := range ranks {
		if x == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("collective: rank %d not in group %v", r, ranks))
	}
	out := make([]int, 0, len(ranks)-1)
	for s := 1; s < len(ranks); s++ {
		out = append(out, ranks[(idx+s)%len(ranks)])
	}
	return out
}

// newBarrier is a signal/wait rank barrier among ranks for the switch-based
// algorithms (relaxed-semantics flags in the real implementation): a mesh
// over 4-byte dummy buffers whose sync is the barrier.
func newBarrier(c *Comm, ranks []int) *mesh[*core.MemoryChannel] {
	dummies := make([]*mem.Buffer, c.Ranks())
	for _, r := range ranks {
		dummies[r] = mem.NewBuffer(r, "barrier", 4)
	}
	return newMesh(c, ranks, dummies, dummies)
}

// AllRanks returns the group of every rank, [0..n).
func AllRanks(n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// NodeRanks returns the global ranks of one node.
func (c *Comm) NodeRanks(node int) []int {
	g := c.M.Env.GPUsPerNode
	rs := make([]int, g)
	for i := range rs {
		rs[i] = node*g + i
	}
	return rs
}

// SameLocalRanks returns the global ranks with local index l across nodes.
func (c *Comm) SameLocalRanks(l int) []int {
	rs := make([]int, c.M.Env.Nodes)
	for n := range rs {
		rs[n] = n*c.M.Env.GPUsPerNode + l
	}
	return rs
}

// FillInputs fills in[r] element i with f(r, i) (test/bench helper).
func FillInputs(in []*mem.Buffer, f func(r int, i int64) float32) {
	for r, b := range in {
		rr := r
		b.FillPattern(func(i int64) float32 { return f(rr, i) })
	}
}

// CheckAllReduce verifies out[r] == sum over ranks of f(rank, i) for all r.
// Each element's sum is computed once, adding ranks 0..n-1 in order, and
// every materialized output is checked against it, so a check costs n
// pattern calls per element rather than n per element of every rank.
func CheckAllReduce(out []*mem.Buffer, f func(r int, i int64) float32, eps float32) error {
	var els int64 // elements of the largest materialized output
	for _, b := range out {
		if b.Materialized() {
			els = max(els, b.Size()/4)
		}
	}
	if els == 0 {
		return nil // nothing materialized: there is nothing to check
	}
	sums := make([]float32, els)
	for r := range out {
		for i := range sums {
			sums[i] += f(r, int64(i))
		}
	}
	want := func(i int64) float32 { return sums[i] }
	for r, b := range out {
		if err := b.EqualFloat32(want, eps); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// CheckAllGather verifies out[r] is the concatenation of the shards,
// where shard p element i equals f(p, i).
func CheckAllGather(out []*mem.Buffer, shardBytes int64, f func(p int, i int64) float32, eps float32) error {
	n := len(out)
	shardEl := shardBytes / 4
	want := func(i int64) float32 {
		p := i / shardEl
		if p >= int64(n) {
			p = int64(n) - 1
		}
		return f(int(p), i%shardEl)
	}
	for r, b := range out {
		if err := b.EqualFloat32(want, eps); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// CheckReduceScatter verifies out[r] element i == sum over p of
// f(p, r*outEl+i).
func CheckReduceScatter(out []*mem.Buffer, f func(p int, i int64) float32, eps float32) error {
	n := len(out)
	for r, b := range out {
		outEl := b.Size() / 4
		base := int64(r) * outEl
		want := func(i int64) float32 {
			var s float32
			for p := 0; p < n; p++ {
				s += f(p, base+i)
			}
			return s
		}
		if err := b.EqualFloat32(want, eps); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}
