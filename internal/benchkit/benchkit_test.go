package benchkit

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/mem"
	"mscclpp/internal/topology"
)

// TestSweepParallelMatchesSequential pins the parallel-harness contract:
// fanning a sweep across workers changes wall-clock time only — every
// per-configuration result (duration, winning algorithm, ordering) is
// identical to a sequential run.
func TestSweepParallelMatchesSequential(t *testing.T) {
	env := topology.A100_40G(1)
	sizes := []int64{1 << 10, 8 << 10, 64 << 10, 512 << 10}
	old := MaxParallel
	defer func() { MaxParallel = old }()

	MaxParallel = 1
	seq, err := Sweep(env, "mscclpp", sizes, MSCCLPPAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	MaxParallel = 4
	par, err := Sweep(env, "mscclpp", sizes, MSCCLPPAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged:\nseq %+v\npar %+v", seq, par)
	}
}

func TestParallelCoversAllIndices(t *testing.T) {
	old := MaxParallel
	defer func() { MaxParallel = old }()
	for _, workers := range []int{1, 3, 8} {
		MaxParallel = workers
		const n = 100
		hits := make([]int32, n)
		if err := Parallel(n, func(i int) error { hits[i]++; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestParallelLowestIndexError checks that every job runs even when some
// fail, and that Parallel reports the failure a sequential run meets first.
func TestParallelLowestIndexError(t *testing.T) {
	old := MaxParallel
	defer func() { MaxParallel = old }()
	for _, workers := range []int{1, 3} {
		MaxParallel = workers
		const n = 20
		var ran atomic.Int32
		err := Parallel(n, func(i int) error {
			ran.Add(1)
			if i%7 == 5 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 5" {
			t.Fatalf("workers=%d: err = %v, want job 5", workers, err)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: %d of %d jobs ran", workers, ran.Load(), n)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", g)
	}
}

func TestHumanSize(t *testing.T) {
	cases := map[int64]string{1 << 10: "1K", 2 << 20: "2M", 1 << 30: "1G", 1000: "1000"}
	for n, want := range cases {
		if got := HumanSize(n); got != want {
			t.Fatalf("HumanSize(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestBestKeepsSkipReasons pins that Best reports why no candidate applied:
// a single-node algorithm priced on two nodes must surface its Prepare error.
func TestBestKeepsSkipReasons(t *testing.T) {
	_, _, err := Best(topology.A100_40G(2), 1<<10, 1<<10, (&collective.AllReduce1PA{}).Prepare)
	if err == nil || !strings.Contains(err.Error(), "single-node only") {
		t.Fatalf("Best(1PA on 2n16g) error = %v, want the Prepare error", err)
	}
}

// TestLLCapDropsNoWinner checks the premise behind llSizeCap: above it,
// NCCLAllReduce tries only ring Simple, which is safe only if none of the
// dropped candidates (ring LL, tree LL, tree Simple) would have won. It
// prices them at 8 MB, the first size past the cap.
func TestLLCapDropsNoWinner(t *testing.T) {
	const size = 8 << 20
	ring := func(p twosided.Proto) prepare {
		return func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, p)
		}
	}
	tree := func(p twosided.Proto) prepare {
		return func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, p)
		}
	}
	for _, env := range []*topology.Env{topology.A100_80G(1), topology.H100(2)} {
		simple, _, err := Best(env, size, size, ring(twosided.ProtoSimple))
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range []struct {
			name string
			prep prepare
		}{
			{"ring LL", ring(twosided.ProtoLL)},
			{"tree LL", tree(twosided.ProtoLL)},
			{"tree Simple", tree(twosided.ProtoSimple)},
		} {
			d, _, err := Best(env, size, size, cand.prep)
			if err != nil {
				t.Fatalf("%s %s: %v", env.Name, cand.name, err)
			}
			if d <= simple {
				t.Errorf("%s 8MB: %s %v beats ring Simple %v above llSizeCap", env.Name, cand.name, d, simple)
			}
		}
	}
}
