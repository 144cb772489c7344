package timing

import (
	"testing"

	"mscclpp/internal/topology"
)

// TestXferTimeRounding is the regression test for the fractional-nanosecond
// truncation bug: any positive-size transfer must cost at least 1 ns, and
// partial nanoseconds round up, never down.
func TestXferTimeRounding(t *testing.T) {
	cases := []struct {
		name string
		size int64
		bw   float64
		want int64
	}{
		{"exact division", 4000, 4.0, 1000},
		{"rounds up", 4001, 4.0, 1001},
		{"sub-ns transfer costs 1ns", 16, 400.0, 1},
		{"one byte on fast link", 1, 397.5, 1},
		{"one byte on slow link", 1, 0.5, 2},
		{"fractional bw rounds up", 100, 3.0, 34},
		{"large transfer", 1 << 30, 256.0, 4194304},
	}
	for _, c := range cases {
		if got := XferTime(c.size, c.bw); got != c.want {
			t.Errorf("%s: XferTime(%d, %g) = %d, want %d", c.name, c.size, c.bw, got, c.want)
		}
	}
}

// TestXferTimeDegenerate covers the guarded inputs: non-positive sizes and
// bandwidths cost nothing rather than producing negative or infinite times.
func TestXferTimeDegenerate(t *testing.T) {
	for _, c := range []struct {
		size int64
		bw   float64
	}{
		{0, 100}, {-1, 100}, {100, 0}, {100, -5}, {0, 0}, {-3, -3},
	} {
		if got := XferTime(c.size, c.bw); got != 0 {
			t.Errorf("XferTime(%d, %g) = %d, want 0", c.size, c.bw, got)
		}
	}
}

// TestXferTimeMonotone: more bytes never cost less time.
func TestXferTimeMonotone(t *testing.T) {
	const bw = 48.94
	prev := int64(0)
	for size := int64(1); size <= 1<<20; size *= 3 {
		got := XferTime(size, bw)
		if got < prev {
			t.Fatalf("XferTime not monotone: %d bytes -> %d ns after %d ns", size, got, prev)
		}
		if got < 1 {
			t.Fatalf("XferTime(%d, %g) = %d, want >= 1", size, bw, got)
		}
		prev = got
	}
}

// TestDefaultModels sanity-checks the calibrated models for every Table 2
// environment: bandwidth helpers must be positive, capped by their links,
// and scale with thread-block count until saturation.
func TestDefaultModels(t *testing.T) {
	envs := []*topology.Env{
		topology.A100_40G(1), topology.A100_80G(2), topology.H100(2), topology.MI300x(1),
	}
	for _, env := range envs {
		m := Default(env)
		if m.Env != env {
			t.Fatalf("%s: model not bound to env", env.Name)
		}
		link := env.PeerBW()
		one := m.ThreadCopyBW(1, link)
		many := m.ThreadCopyBW(64, link)
		if one <= 0 || many <= 0 {
			t.Errorf("%s: non-positive thread-copy bandwidth", env.Name)
		}
		if many > m.ThreadCopyPeakFrac*link+1e-9 {
			t.Errorf("%s: ThreadCopyBW(64) = %g exceeds peak fraction of link %g", env.Name, many, link)
		}
		if many < one {
			t.Errorf("%s: thread-copy bandwidth not monotone in TB count", env.Name)
		}
		if got := m.ThreadCopyBW(0, link); got != m.ThreadCopyBW(1, link) {
			t.Errorf("%s: ThreadCopyBW(0) = %g, want clamp to one TB", env.Name, got)
		}
		if lrb := m.LocalReduceBW(1024); lrb > env.HBMBW/3+1e-9 {
			t.Errorf("%s: LocalReduceBW exceeds HBM/3 cap", env.Name)
		}
	}
}
