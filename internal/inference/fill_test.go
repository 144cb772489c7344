package inference

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mscclpp/internal/sim"
)

// TestServeFillWakes prices what a serving set-up fills its MSCCL++
// AllReduce cache with, token counts 1..544 at 16 KB a token on A100-80G,
// and pins the durations (as an FNV-1a hash), the engine events and the
// process wakes of all 544 simulations. The durations and events are those
// of blocks that woke once per Primitive API call; a block that queues its
// calls wakes at most twice per launch. It is not parallel: the counts are
// process-wide run totals (sim.Totals), so nothing else may simulate while
// it runs.
func TestServeFillWakes(t *testing.T) {
	const (
		tokens     = 544
		perToken   = 16 << 10
		wantHash   = 0x4a2b83b16b24420d
		wantEvents = 1912144
		wantWakes  = 77408
	)
	events0, wakes0 := sim.Totals()
	h := fnv.New64a()
	for tok := int64(1); tok <= tokens; tok++ {
		d, err := MeasureAllReduce(a100_80g(), LibMSCCLPP, tok*perToken)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(d)))
	}
	events, wakes := sim.Totals()
	got := [3]uint64{h.Sum64(), events - events0, wakes - wakes0}
	if want := [3]uint64{wantHash, wantEvents, wantWakes}; got != want {
		t.Errorf("hash/events/wakes = %#x/%d/%d, want %#x/%d/%d", got[0], got[1], got[2], want[0], want[1], want[2])
	}
}
