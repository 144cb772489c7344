package moe

import (
	"testing"

	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func TestEngineValidation(t *testing.T) {
	if _, err := New(topology.H100(2), Config{Hidden: 7168, TopK: 8, Experts: 100}, TransportMSCCLPP); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := New(topology.H100(2), DefaultConfig(), Transport("bogus")); err == nil {
		t.Fatal("expected transport error")
	}
}

func TestDestBytesUniformAndComplete(t *testing.T) {
	e, err := New(topology.H100(2), DefaultConfig(), TransportMSCCLPP)
	if err != nil {
		t.Fatal(err)
	}
	tokens := 4096
	d := e.Cfg.destBytes(16, 0, tokens, 1)
	var total int64
	for _, b := range d {
		total += b
	}
	perRank := tokens / 16
	want := int64(perRank * e.Cfg.TopK * e.Cfg.Hidden)
	if total != want {
		t.Fatalf("total bytes %d, want %d", total, want)
	}
	// Near-uniform: every destination within 3x of the mean.
	mean := total / 16
	for p, b := range d {
		if b < mean/3 || b > mean*3 {
			t.Fatalf("dest %d gets %d bytes, mean %d: routing too skewed", p, b, mean)
		}
	}
}

// TestDispatchCombineBothTransports runs three dispatch/combine passes on
// one Engine per transport. Every pass must take the first one's virtual
// time, so the all-to-all pricing may time a single pass on a fresh engine.
func TestDispatchCombineBothTransports(t *testing.T) {
	for _, tr := range []Transport{TransportMSCCLPP, TransportIBGDA} {
		e, err := New(topology.H100(2), DefaultConfig(), tr)
		if err != nil {
			t.Fatal(err)
		}
		var first [2]sim.Duration
		for pass := 1; pass <= 3; pass++ {
			res, err := e.Dispatch(2048)
			if err != nil {
				t.Fatalf("%s dispatch: %v", tr, err)
			}
			if res.Elapsed <= 0 || res.AlgoBWGBs <= 0 {
				t.Fatalf("%s dispatch: %+v", tr, res)
			}
			resC, err := e.Combine(2048)
			if err != nil {
				t.Fatalf("%s combine: %v", tr, err)
			}
			// Combine moves 2x the bytes (BF16 vs FP8).
			if resC.BytesMax != 2*res.BytesMax {
				t.Fatalf("%s: combine bytes %d != 2x dispatch bytes %d", tr, resC.BytesMax, res.BytesMax)
			}
			got := [2]sim.Duration{res.Elapsed, resC.Elapsed}
			if pass == 1 {
				first = got
			} else if got != first {
				t.Fatalf("%s pass %d: dispatch/combine %v ns, first pass %v ns", tr, pass, got, first)
			}
		}
	}
}

// Figure 13 shape: bandwidth grows with batch and saturates near the NIC
// rate; MSCCL++ and IBGDA show no noticeable difference at saturation.
func TestFigure13Shape(t *testing.T) {
	bwAt := func(tr Transport, tokens int) float64 {
		e, err := New(topology.H100(2), DefaultConfig(), tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Dispatch(tokens)
		if err != nil {
			t.Fatal(err)
		}
		return res.AlgoBWGBs
	}
	smallM := bwAt(TransportMSCCLPP, 256)
	bigM := bwAt(TransportMSCCLPP, 32768)
	bigG := bwAt(TransportIBGDA, 32768)
	if bigM <= smallM {
		t.Fatalf("bandwidth should grow with batch: %f -> %f", smallM, bigM)
	}
	env := topology.H100(2)
	if bigM < 0.5*env.IBBW || bigM > 1.5*env.IBBW {
		t.Fatalf("saturated BW %.1f GB/s not near NIC rate %.1f", bigM, env.IBBW)
	}
	// Parity: within 10% at saturation.
	ratio := bigM / bigG
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("MSCCL++ (%.1f) vs IBGDA (%.1f) differ by more than 10%%", bigM, bigG)
	}
}
