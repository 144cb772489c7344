package serve

// Unit coverage for the KV block ledger and the end-of-run conservation
// check that stands behind it: ceiling sizing, partial takes at
// exhaustion, over-return panics and a leaked block failing checkDrained.

import (
	"strings"
	"testing"

	"mscclpp/internal/sim"
)

func TestKVLedger(t *testing.T) {
	base := testConfig()
	c := base.withDefaults()
	perTok := c.Model.KVBytesPerTokenPerGPU
	c.KVCapacityBytes = 100 * perTok
	if l := newKVLedger(&c); l.blocks != 100 || l.blockTokens != 1 {
		t.Fatalf("reserve geometry: %d blocks x %d tokens, want 100 x 1", l.blocks, l.blockTokens)
	}
	c.KVPolicy = KVPaged
	l := newKVLedger(&c) // 100 tokens -> 6 whole blocks of 16
	if l.blocks != 6 || l.blockTokens != 16 {
		t.Fatalf("paged geometry: %d blocks x %d tokens, want 6 x 16", l.blocks, l.blockTokens)
	}
	for _, tc := range []struct{ tokens, want int }{{-5, 0}, {0, 0}, {1, 1}, {16, 1}, {17, 2}, {96, 6}} {
		if got := l.BlocksFor(tc.tokens); got != tc.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", tc.tokens, got, tc.want)
		}
	}
	if got := l.take(4); got != 4 {
		t.Fatalf("take(4) on an empty ledger = %d", got)
	}
	if got := l.take(5); got != 2 {
		t.Fatalf("take(5) with 2 free = %d, want the partial 2", got)
	}
	if l.used != 6 || l.free() != 0 {
		t.Fatalf("exhausted ledger reports %d used / %d free", l.used, l.free())
	}
	if got := l.take(1); got != 0 {
		t.Fatalf("take(1) on an exhausted ledger = %d", got)
	}
	l.give(6)
	if l.used != 0 || l.free() != 6 {
		t.Fatalf("drained ledger reports %d used / %d free", l.used, l.free())
	}
}

func TestKVLedgerGivePanics(t *testing.T) {
	l := kvLedger{blockTokens: 16, blocks: 4}
	l.take(2)
	for _, bad := range []int{3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("give(%d) with 2 held did not panic", bad)
				}
			}()
			l.give(bad)
		}()
	}
	if l.used != 2 {
		t.Errorf("a refused give changed the count: %d used, want 2", l.used)
	}
}

// TestCheckDrainedBlockLeak: a finished replica whose ledger still holds a
// block fails the end-of-run check RunRouted applies to every replica.
func TestCheckDrainedBlockLeak(t *testing.T) {
	for _, policy := range []KVPolicy{KVReserve, KVPaged} {
		cfg := testConfig()
		cfg.KVPolicy = policy
		eng := sim.NewEngine()
		s, err := newScheduler(eng, "leak", cfg, roleUnified)
		if err != nil {
			t.Fatal(err)
		}
		eng.At(0, func() {
			s.Submit(Request{ID: 1, PromptLen: 64, OutputLen: 4})
			s.Close()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := checkDrained(s); err != nil {
			t.Fatalf("policy %d: clean run failed the drain check: %v", policy, err)
		}
		s.kv.take(1)
		if err := checkDrained(s); err == nil || !strings.Contains(err.Error(), "1 of") {
			t.Errorf("policy %d: checkDrained = %v, want a held-blocks error", policy, err)
		}
	}
}
