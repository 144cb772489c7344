package serve

// Coverage for the paged scheduler's importance index: ranked must be
// exactly the running batch sorted by compareImportance at every instant,
// and departed requests must not stay reachable through the scheduler's
// reused slices.

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"mscclpp/internal/sim"
)

// driveReplica runs wl on one scheduler attached to a fresh engine: each
// request is submitted at its arrival (as a finished prefill on a decode
// replica), Close follows the last arrival, and probe runs every few
// virtual milliseconds until the replica is done. submitted receives each
// request's state right after it is queued.
func driveReplica(t *testing.T, cfg Config, ro role, wl Workload, probe func(*Scheduler), submitted func(*reqState)) *Scheduler {
	t.Helper()
	eng := sim.NewEngine()
	s, err := newScheduler(eng, "replica", cfg, ro)
	if err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	for _, r := range wl.Requests {
		eng.At(r.Arrival, func() {
			if ro == roleDecode {
				s.SubmitPrefilled(Prefilled{Req: r, Admitted: r.Arrival, FirstToken: r.Arrival})
			} else {
				s.Submit(r)
			}
			if submitted != nil {
				submitted(s.waiting[len(s.waiting)-1])
			}
		})
		last = max(last, r.Arrival)
	}
	eng.At(last, s.Close)
	const every = 3 * sim.Millisecond
	const horizon = 3600 * sim.Second // a stuck replica must not probe forever
	var tick func()
	tick = func() {
		probe(s)
		if !s.Done() && eng.Now() < horizon {
			eng.At(eng.Now()+every, tick)
		}
	}
	eng.At(0, tick)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := checkDrained(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkRanked asserts the importance index invariant: ranked holds the
// same residents as active, none departed, in compareImportance order.
func checkRanked(t *testing.T, s *Scheduler) {
	t.Helper()
	want := slices.SortedFunc(slices.Values(s.active), compareImportance)
	if !slices.Equal(s.ranked, want) {
		t.Fatalf("at %d ns: ranked (%d) is not active (%d) in importance order", s.eng.Now(), len(s.ranked), len(s.active))
	}
	for _, rs := range s.ranked {
		if !rs.resident {
			t.Fatalf("at %d ns: departed request %d still ranked", s.eng.Now(), rs.req.ID)
		}
	}
}

// TestRankedMatchesActive drives paged replicas through sustained
// overload under every admission order and both explicit eviction modes,
// plus a decode-pool replica (which always swaps), probing the index
// throughout. Mixed priority classes make importance order differ from
// admission order.
func TestRankedMatchesActive(t *testing.T) {
	wl := WithPriorities(overloadWorkload(), 5, 0.4)
	type tc struct {
		name  string
		ro    role
		order AdmissionOrder
		mode  PreemptPolicy
	}
	var cases []tc
	for _, ad := range []struct {
		name  string
		order AdmissionOrder
	}{{"fifo", AdmitFIFO}, {"sjf", AdmitSJF}, {"decode-first", AdmitDecodeFirst}} {
		for _, pp := range []struct {
			name string
			mode PreemptPolicy
		}{{"swap", PreemptSwap}, {"recompute", PreemptRecompute}} {
			cases = append(cases, tc{ad.name + "/" + pp.name, roleUnified, ad.order, pp.mode})
		}
	}
	cases = append(cases, tc{"decode-pool", roleDecode, AdmitFIFO, PreemptAuto})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := pagedConfig()
			cfg.Admission = c.order
			cfg.Preempt = c.mode
			probes := 0
			s := driveReplica(t, cfg, c.ro, wl, func(s *Scheduler) {
				probes++
				checkRanked(t, s)
			}, nil)
			if s.res.Preemptions == 0 {
				t.Error("overload never preempted — eviction went unexercised")
			}
			if probes < 100 {
				t.Errorf("only %d probes ran", probes)
			}
			if len(s.active) != 0 || len(s.ranked) != 0 {
				t.Errorf("drained replica still holds %d active / %d ranked", len(s.active), len(s.ranked))
			}
		})
	}
}

// TestReservedReplicaLeavesRankedNil: reserved-KV replicas never preempt,
// so they must not pay for maintaining the importance index.
func TestReservedReplicaLeavesRankedNil(t *testing.T) {
	seen := 0
	driveReplica(t, testConfig(), roleUnified, overloadWorkload(), func(s *Scheduler) {
		seen = max(seen, len(s.active))
		if s.ranked != nil {
			t.Fatalf("reserved replica built a ranked index of %d", len(s.ranked))
		}
	}, nil)
	if seen == 0 {
		t.Error("no probe saw a running batch")
	}
}

// TestDepartedRequestsCollectable: once a request completes, nothing the
// scheduler keeps — waiting queue, running batch, importance index or the
// reused iteration plan — may still reach it or its block list.
func TestDepartedRequestsCollectable(t *testing.T) {
	for _, mode := range []PreemptPolicy{PreemptRecompute, PreemptSwap} {
		cfg := pagedConfig()
		cfg.Preempt = mode
		var refs []weak.Pointer[reqState]
		s := driveReplica(t, cfg, roleUnified, overloadWorkload(), func(*Scheduler) {}, func(rs *reqState) {
			refs = append(refs, weak.Make(rs))
		})
		if s.res.Preemptions == 0 {
			t.Fatal("overload never preempted")
		}
		runtime.GC()
		runtime.GC()
		live := 0
		for _, w := range refs {
			if w.Value() != nil {
				live++
			}
		}
		if live != 0 {
			t.Errorf("preempt mode %d: %d of %d completed requests still reachable from the scheduler", mode, live, len(refs))
		}
		runtime.KeepAlive(s)
	}
}

// TestReqStateSize pins the per-request state at 184 bytes: the resident
// flag shares padding with swapped and stalled, and the KV holding is one
// block count.
func TestReqStateSize(t *testing.T) {
	if got := unsafe.Sizeof(reqState{}); got != 184 {
		t.Errorf("reqState is %d bytes, want 184", got)
	}
}
