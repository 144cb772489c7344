package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// feedSchedule runs one seeded schedule and returns its firing log
// ("time:name" per event) and the engine's event count. Fed entries go
// through Feed when useFeed is set and through one At per entry otherwise;
// everything else, including every random draw, is the same code in the
// same order, so the two logs match exactly when Feed orders like At.
//
// The schedule has a Feed before Run and up to three more from inside
// running events. Each fed list starts at or before now, takes small
// steps (so runs of equal times are common) and is interleaved with
// background events that tie fed entries at the same nanosecond: some
// scheduled before that instant is reached (heap residents), some at the
// instant itself (ring residents).
func feedSchedule(seed int64, useFeed bool) ([]string, uint64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var log []string
	children, feeds := 0, 0
	var act func(name string)
	feed := func() {
		feeds++
		name := fmt.Sprintf("f%d", feeds)
		ts := make([]Time, 1+rng.Intn(24))
		t := e.Now() - Time(rng.Intn(2))
		for i := range ts {
			if rng.Intn(3) == 0 {
				t += Time(1 + rng.Intn(3))
			}
			ts[i] = t
		}
		fire := func(i int) { act(fmt.Sprintf("%s[%d]", name, i)) }
		if useFeed {
			e.Feed(ts, fire)
			return
		}
		for i, t := range ts {
			e.At(t, func() { fire(i) })
		}
	}
	act = func(name string) {
		log = append(log, fmt.Sprintf("%d:%s", e.Now(), name))
		if children >= 200 {
			return
		}
		switch rng.Intn(5) {
		case 0: // ring resident: scheduled once the instant is reached
			children++
			id := children
			e.At(e.Now(), func() { act(fmt.Sprintf("now%d", id)) })
		case 1, 2: // heap resident: scheduled before its instant
			children++
			id := children
			e.At(e.Now()+Time(1+rng.Intn(4)), func() { act(fmt.Sprintf("later%d", id)) })
		case 3:
			if feeds < 4 {
				feed()
			}
		}
	}
	for i := 0; i < 4; i++ {
		id := i
		e.At(Time(rng.Intn(6)), func() { act(fmt.Sprintf("pre%d", id)) })
	}
	feed()
	for i := 0; i < 4; i++ {
		id := i
		e.At(Time(rng.Intn(6)), func() { act(fmt.Sprintf("post%d", id)) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return log, e.EventsRun()
}

// TestFeedOrdersLikeAt: every fed entry fires exactly where one At per
// entry, made at the Feed call, would have fired it — against entries
// already due, runs of equal times, same-nanosecond ties with events
// scheduled before and after their instant is reached, and Feeds from
// inside running events — and the engine runs the same number of events.
// A Feed costs one allocation whatever its length.
func TestFeedOrdersLikeAt(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 300; seed++ {
		want, wantEvents := feedSchedule(seed, false)
		got, gotEvents := feedSchedule(seed, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Feed log\n%v\nwant (At)\n%v", seed, got, want)
		}
		if gotEvents != wantEvents {
			t.Fatalf("seed %d: Feed ran %d events, At %d", seed, gotEvents, wantEvents)
		}
		for i := 1; i < len(got); i++ {
			at, name, _ := strings.Cut(got[i], ":")
			pat, pname, _ := strings.Cut(got[i-1], ":")
			if at == pat && strings.HasPrefix(name, "f") != strings.HasPrefix(pname, "f") {
				ties++
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d same-nanosecond ties between fed and other events; the schedule is too weak", ties)
	}

	e := NewEngine()
	ts := make([]Time, 64)
	fired := 0
	fire := func(int) { fired++ }
	if n := testing.AllocsPerRun(50, func() {
		for i := range ts {
			ts[i] = e.Now() + Time(i/3)
		}
		e.Feed(ts, fire)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Feed of %d entries + Run allocates %v objects, want 1 (the cursor)", len(ts), n)
	}
	if fired != 51*len(ts) {
		t.Fatalf("fired %d entries, want %d", fired, 51*len(ts))
	}
}

// TestFeedRejectsDecreasingTimes: Feed checks its whole list up front and
// names the first decreasing pair.
func TestFeedRejectsDecreasingTimes(t *testing.T) {
	e := NewEngine()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "non-decreasing") || !strings.Contains(msg, "ts[2] = 4") {
			t.Fatalf("panic %q, want a non-decreasing-times message naming ts[2]", msg)
		}
		if len(e.heap)+len(e.ring) != 0 {
			t.Fatal("a rejected Feed scheduled entries")
		}
	}()
	e.Feed([]Time{0, 5, 4, 6}, func(int) {})
	t.Fatal("Feed accepted decreasing times")
}
