package dsl

import (
	"testing"

	"mscclpp/internal/plan"
)

func TestLowerInsertsSyncBetweenDependentOps(t *testing.T) {
	p := NewProgram("dep", "test", 2, 1, 1024, 1024)
	scr := p.ScratchBuffer(0, 1024)
	// Write scr then read it: lowering must insert a tb_sync between.
	scr.Whole().Copy(p.Input(0).Whole(), 0)
	p.Output(0).Whole().Copy(scr.Whole(), 0)
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	ops := pl.Programs[0][0]
	if len(ops) != 3 {
		t.Fatalf("ops = %v, want copy/tb_sync/copy", codes(ops))
	}
	if ops[1].Code != plan.OpTBSync {
		t.Fatalf("middle op = %s, want tb_sync", ops[1].Code)
	}
}

func TestLowerNoSyncBetweenIndependentOps(t *testing.T) {
	p := NewProgram("indep", "test", 2, 1, 1024, 1024)
	scr := p.ScratchBuffer(0, 2048)
	scr.Chunk(0, 1024).Copy(p.Input(0).Whole(), 0)
	scr.Chunk(1024, 1024).Copy(p.Input(0).Whole(), 0)
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pl.Programs[0][0] {
		if op.Code == plan.OpTBSync {
			t.Fatalf("unnecessary sync inserted: %v", codes(pl.Programs[0][0]))
		}
	}
}

func TestLowerRedundantSyncElimination(t *testing.T) {
	p := NewProgram("redundant", "test", 2, 2, 1024, 1024)
	// Back-to-back device syncs collapse is for tb_sync; grid barriers stay,
	// but a dependent pair across a wait gets no extra sync.
	ch := p.MemoryChannel(0, 1, p.Input(0), p.Input(1))
	ch.Put(p.Input(1).Whole(), p.Input(0).Whole(), 0)
	ch.Signal(0)
	ch.Wait(0)
	// After the wait (a sync point), reading data written before it must not
	// insert another tb_sync.
	p.Output(1).Whole().Copy(p.Input(1).Whole(), 0)
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pl.Programs[1][0] {
		if op.Code == plan.OpTBSync {
			t.Fatalf("sync after wait is redundant: %v", codes(pl.Programs[1][0]))
		}
	}
}

func TestLowerFusesPutSignal(t *testing.T) {
	p := NewProgram("fuse1", "test", 2, 1, 1024, 1024)
	ch := p.MemoryChannel(0, 1, p.Input(0), p.Input(1))
	ch.Put(p.Input(1).Whole(), p.Input(0).Whole(), 0)
	ch.Signal(0)
	ch.Wait(0)
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	ops := pl.Programs[0][0]
	if len(ops) != 1 || ops[0].Code != plan.OpPutWithSignal {
		t.Fatalf("rank0 ops = %v, want single put_with_signal", codes(ops))
	}
}

func TestLowerFusesReducePut(t *testing.T) {
	p := NewProgram("fuse2", "test", 2, 1, 1024, 1024)
	scrA := p.ScratchBuffer(0, 1024)
	scrB := p.ScratchBuffer(0, 1024)
	ch := p.MemoryChannel(0, 1, scrA, p.Input(1))
	// A += B; put(dst, A): fuses into reduce_put since A is dead after.
	scrA.Whole().Reduce(scrB.Whole(), 0)
	ch.Put(p.Input(1).Whole(), scrA.Whole(), 0)
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range pl.Programs[0][0] {
		if op.Code == plan.OpReducePut {
			found = true
		}
		if op.Code == plan.OpLocalReduce || op.Code == plan.OpPut {
			t.Fatalf("unfused ops remain: %v", codes(pl.Programs[0][0]))
		}
	}
	if !found {
		t.Fatalf("reduce_put missing: %v", codes(pl.Programs[0][0]))
	}
}

func TestLowerNoReducePutFusionWhenValueLive(t *testing.T) {
	p := NewProgram("nofuse", "test", 2, 1, 1024, 1024)
	scrA := p.ScratchBuffer(0, 1024)
	scrB := p.ScratchBuffer(0, 1024)
	ch := p.MemoryChannel(0, 1, scrA, p.Input(1))
	scrA.Whole().Reduce(scrB.Whole(), 0)
	ch.Put(p.Input(1).Whole(), scrA.Whole(), 0)
	// scrA is read later: fusion would lose the reduced value.
	p.Output(0).Whole().Copy(scrA.Whole(), 0)
	pl, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pl.Programs[0][0] {
		if op.Code == plan.OpReducePut {
			t.Fatalf("illegal fusion with live value: %v", codes(pl.Programs[0][0]))
		}
	}
}

func TestLowerRejectsUnbalancedSignals(t *testing.T) {
	p := NewProgram("unbalanced", "test", 2, 1, 1024, 1024)
	ch := p.MemoryChannel(0, 1, p.Input(0), p.Input(1))
	ch.Wait(0) // wait with no signal anywhere
	if _, err := p.Lower(); err == nil {
		t.Fatal("expected signal/wait balance error")
	}
}

func TestLowerRejectsBadChunks(t *testing.T) {
	p := NewProgram("bad", "test", 2, 1, 1024, 1024)
	p.Input(0).Chunk(512, 1024) // out of bounds, recorded as error
	if _, err := p.Lower(); err == nil {
		t.Fatal("expected chunk bounds error")
	}
}

// The group-side range of a switch op is checked against the issuing
// rank's member buffer, and only members may issue switch ops.
func TestLowerRejectsBadSwitchOps(t *testing.T) {
	cases := map[string]func(p *Program, ch *SwitchChannel){
		"reduce range out of bounds": func(p *Program, ch *SwitchChannel) {
			ch.Reduce(0, p.Output(0).Chunk(0, 512), 768, 512, 0)
		},
		"broadcast range out of bounds": func(p *Program, ch *SwitchChannel) {
			ch.Broadcast(1, 768, p.Output(1).Chunk(0, 512), 0)
		},
		"non-member rank": func(p *Program, ch *SwitchChannel) {
			ch.Reduce(2, p.Output(2).Chunk(0, 512), 0, 512, 0)
		},
	}
	for name, emit := range cases {
		p := NewProgram("switch", "test", 3, 1, 1024, 1024)
		ch := p.SwitchChannelOver([]int{0, 1}, []*Buffer{p.Input(0), p.Input(1)})
		emit(p, ch)
		if _, err := p.Lower(); err == nil {
			t.Errorf("%s: expected a lowering error", name)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	prog, err := BuildAllReduce1PA(8, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prog.Lower()
	if err != nil {
		t.Fatal(err)
	}
	data, err := pl.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.OpCount() != pl.OpCount() || back.Name != pl.Name || len(back.Channels) != len(pl.Channels) {
		t.Fatalf("round trip mismatch: %d/%d ops", back.OpCount(), pl.OpCount())
	}
}

func TestBuildProgramsLower(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*Program, error)
	}{
		{"1pa", func() (*Program, error) { return BuildAllReduce1PA(8, 8192, 2) }},
		{"2pahb", func() (*Program, error) { return BuildAllReduce2PAHB(8, 65536, 4) }},
		{"ringrs", func() (*Program, error) { return BuildRingReduceScatter(8, 65536) }},
	}
	for _, c := range cases {
		prog, err := c.f()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pl, err := prog.Lower()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if pl.OpCount() == 0 {
			t.Fatalf("%s: empty plan", c.name)
		}
	}
}

func codes(ops []plan.Op) []plan.OpCode {
	out := make([]plan.OpCode, len(ops))
	for i, o := range ops {
		out[i] = o.Code
	}
	return out
}
