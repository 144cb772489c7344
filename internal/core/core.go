// Package core implements the MSCCL++ Primitive API (paper Section 4): the
// minimal, performance-preserving hardware abstractions for GPU
// communication.
//
// The package provides the three channel types of the paper —
//
//   - PortChannel for port-mapped I/O (DMA engines / RDMA NICs driven by a
//     CPU proxy thread through a FIFO request queue),
//   - MemoryChannel for memory-mapped I/O (peer-to-peer thread copy, with LL
//     and HB protocols),
//   - SwitchChannel for switch-mapped I/O (in-network reduction and
//     multicast over multimem addresses),
//
// plus the bootstrap-side Communicator used to establish channels. All data
// transfer primitives are zero-copy (no staging buffers), one-sided
// (initiated by one peer) and asynchronous (explicit signal/wait/flush
// synchronization).
package core

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// Communicator is the host-side bootstrap object: it owns channel
// construction between ranks of one machine, mirroring MSCCL++'s
// bootstrapping API (connection setup, memory registration, semaphore
// allocation).
type Communicator struct {
	M *machine.Machine

	nextChan int
}

// NewCommunicator returns a communicator over all ranks of m.
func NewCommunicator(m *machine.Machine) *Communicator {
	return &Communicator{M: m}
}

// Ranks returns the number of ranks in the communicator.
func (c *Communicator) Ranks() int { return len(c.M.GPUs) }

func (c *Communicator) id() int {
	c.nextChan++
	return c.nextChan
}

// Channel is the synchronization-and-transfer interface shared by
// PortChannel and MemoryChannel endpoints, letting collective algorithms be
// written generically over the transport (paper Section 6: 2PR runs over
// either PortChannel or MemoryChannel).
type Channel interface {
	// Put transfers size bytes from the bound local buffer at srcOff to the
	// bound remote buffer at dstOff. When invoked by a thread-block group,
	// each block tb of nTB moves its shard. Asynchronous: completion is
	// observed via Signal/Wait (receiver) and Flush (sender).
	Put(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int)
	// PutWithSignal fuses Put and Signal into one primitive call.
	PutWithSignal(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int)
	// Signal asynchronously increments the peer's semaphore, ordered after
	// all previous transfers on this channel.
	Signal(k *machine.Kernel)
	// Wait blocks until the local semaphore reaches the next expected value.
	Wait(k *machine.Kernel)
	// Flush blocks until all previous transfers on this channel are complete
	// from the sender's perspective (the source buffer may be reused).
	Flush(k *machine.Kernel)
	// LocalRank and RemoteRank identify the endpoint.
	LocalRank() int
	RemoteRank() int
}

// validateEndpoint panics on malformed channel construction.
func validateEndpoint(m *machine.Machine, a, b int, abuf, bbuf *mem.Buffer) {
	n := len(m.GPUs)
	if a < 0 || a >= n || b < 0 || b >= n || a == b {
		panic(fmt.Sprintf("core: invalid channel ranks (%d,%d) of %d", a, b, n))
	}
	if abuf == nil || bbuf == nil {
		panic("core: channel requires registered buffers on both ranks")
	}
	if abuf.Rank != a || bbuf.Rank != b {
		panic(fmt.Sprintf("core: buffer ranks (%d,%d) do not match channel ranks (%d,%d)",
			abuf.Rank, bbuf.Rank, a, b))
	}
}
