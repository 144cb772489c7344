package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// tinyDigest sets a workload up at tiny scale, runs two passes and returns
// the digest of every virtual result they produced.
func tinyDigest(t *testing.T, name string) string {
	t.Helper()
	w := workloads[name](defaultSeed, true)
	if err := w.setup(nil, nil); err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	chk := newChecker(nil)
	for i := 0; i < 2; i++ {
		if a, f := w.pass(nil, nil, chk); a == 0 || f != 0 {
			t.Fatalf("%s pass %d: attempted %d, failed %d: %v", name, i, a, f, chk.mismatches)
		}
	}
	return chk.digest()
}

// TestDigestsDeterministic: the benchmark's own code adds no
// nondeterminism — digests agree across runs and across GOMAXPROCS.
func TestDigestsDeterministic(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var got []string
			for _, procs := range []int{1, 2, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got = append(got, tinyDigest(t, name))
				runtime.GOMAXPROCS(prev)
			}
			if got[0] != got[1] || got[1] != got[2] {
				t.Fatalf("digests differ (GOMAXPROCS 1, 2, 2): %v", got)
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestRunOutput drives the command at tiny scale, untraced and traced, and
// checks the last line of its output carries every metric BENCHMARK.json
// declares, with its unit, and that the traced run's guards hold.
func TestRunOutput(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(names)
	sort.Strings(known)
	if strings.Join(names, ",") != strings.Join(known, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, known)
	}
	for _, name := range known {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--seed", "7", "--seconds", "0", "--trace", trace, "--tiny",
				"--trace-out", filepath.Join(t.TempDir(), "trace.json")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct %v, attempted %d, failed %d: %s",
					name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := bj.EndToEnd
			if trace == "1" {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestUnknownWorkload: a bad invocation exits nonzero without a result.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
