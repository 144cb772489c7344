// Package benchkit provides the measurement harness that regenerates the
// paper's tables and figures: message-size sweeps over the MSCCL++, NCCL-sim
// and MSCCL-sim libraries, series formatting, and summary statistics.
package benchkit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// SmallSizes are the latency-regime message sizes of Figures 7-10 (1KB-1MB).
func SmallSizes() []int64 {
	var out []int64
	for s := int64(1 << 10); s <= 1<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// LargeSizes are the bandwidth-regime sizes of Figures 7-10 (1MB-1GB).
func LargeSizes() []int64 {
	var out []int64
	for s := int64(1 << 20); s <= 1<<30; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Point is one measurement. Dur is exact virtual time (ns), so a marshaled
// Point is a canonical, drift-free record of the simulation result.
type Point struct {
	Size int64        `json:"size"`
	Dur  sim.Duration `json:"dur_ns"`
	Algo string       `json:"algo,omitempty"`
}

// LatencyUS returns the latency in microseconds.
func (p Point) LatencyUS() float64 { return float64(p.Dur) / 1000 }

// AlgoBW returns the algorithm bandwidth in GB/s (size/time).
func (p Point) AlgoBW() float64 {
	if p.Dur <= 0 {
		return 0
	}
	return float64(p.Size) / float64(p.Dur)
}

// Series is a named sweep result.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// MeasureFn times one library's collective at one size.
type MeasureFn func(env *topology.Env, size int64) (sim.Duration, string, error)

// MaxParallel bounds the number of simulations Parallel runs concurrently.
// Each simulation owns its engine (and machine, fabric, buffers), so sweeps
// over independent configurations are embarrassingly parallel. Set to 1 to
// force sequential execution (e.g. when bisecting a nondeterminism report).
var MaxParallel = runtime.GOMAXPROCS(0)

// Parallel runs jobs 0..n-1 on a MaxParallel-bounded worker pool and waits
// for all of them. Jobs must be independent; each receives its index, so
// callers write results into index-stable slots and output ordering is
// unchanged from a sequential run. Every job runs even when another fails;
// Parallel returns the error of the lowest-index failing job, as a
// sequential run stopping at its first failure would. Do not nest Parallel
// calls.
func Parallel(n int, job func(i int) error) error {
	errs := make([]error, n)
	workers := min(MaxParallel, n)
	if workers <= 1 {
		for i := range n {
			errs[i] = job(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = job(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep measures sizes with fn, fanning the per-size simulations out across
// the worker pool. Every simulation is deterministic and owns its machine,
// so results (and their order) are identical to a sequential sweep; only
// wall-clock time changes. On error the first failing size (in size order)
// is reported, with the points measured before it.
func Sweep(env *topology.Env, name string, sizes []int64, fn MeasureFn) (Series, error) {
	s := Series{Name: name, Points: make([]Point, len(sizes))}
	done := make([]bool, len(sizes))
	err := Parallel(len(sizes), func(i int) error {
		d, algo, err := fn(env, sizes[i])
		if err != nil {
			return fmt.Errorf("%s at %d: %w", name, sizes[i], err)
		}
		s.Points[i] = Point{Size: sizes[i], Dur: d, Algo: algo}
		done[i] = true
		return nil
	})
	if err != nil {
		return Series{Name: name, Points: s.Points[:slices.Index(done, false)]}, err
	}
	return s, nil
}

// bufs allocates timing-only buffer sets.
func bufs(m *machine.Machine, inSize, outSize int64) (in, out []*mem.Buffer) {
	in = make([]*mem.Buffer, len(m.GPUs))
	out = make([]*mem.Buffer, len(m.GPUs))
	for r := range m.GPUs {
		in[r] = m.Alloc(r, "in", inSize)
		out[r] = m.Alloc(r, "out", outSize)
	}
	return in, out
}

// prepare builds one candidate algorithm's reusable Exec for the given
// per-rank buffers; Algorithm.Prepare and the baseline libraries' Prepare
// methods all fit it.
type prepare = func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error)

// Best prices a library as the paper does: it runs each candidate on a
// fresh timing-only machine built from env, with inSize-byte inputs and
// outSize-byte outputs per rank, and returns the fastest time and that
// candidate's Exec name. A candidate whose Prepare fails does not apply and
// is skipped; when none applies, the error joins every Prepare error. One
// run per candidate is exact because Comm.Run is idempotent
// (TestRepeatedInvocationProperty, TestBaselineRepeatedInvocation).
func Best(env *topology.Env, inSize, outSize int64, cands ...prepare) (sim.Duration, string, error) {
	best := sim.Duration(math.MaxInt64)
	bestName := ""
	var skipped []error
	for _, prep := range cands {
		m := machine.New(env)
		m.MaterializeLimit = 0
		c := collective.New(m)
		in, out := bufs(m, inSize, outSize)
		ex, err := prep(c, in, out)
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		d, err := c.Run(ex)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", ex.Name, err)
		}
		if d < best {
			best, bestName = d, ex.Name
		}
	}
	if bestName == "" {
		return 0, "", fmt.Errorf("no applicable algorithm: %w", errors.Join(skipped...))
	}
	return best, bestName, nil
}

// MSCCLPPAllReduce measures the best MSCCL++ AllReduce (all applicable
// algorithms, best per size — the paper's methodology).
func MSCCLPPAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	var cands []prepare
	for _, a := range collective.New(machine.New(env)).AllReduceAlgorithms() {
		cands = append(cands, a.Prepare)
	}
	return Best(env, size, size, cands...)
}

// llSizeCap bounds the sizes at which LL-protocol and NCCL tree candidates
// are tried: they are never competitive above a few MB (the paper's tuned
// baselines pick protocols per size the same way; TestLLCapDropsNoWinner
// checks NCCL at 8 MB) and their tiny chunk counts make huge-message
// simulation needlessly slow.
const llSizeCap = 4 << 20

// NCCLAllReduce measures tuned NCCL-sim (best of ring Simple/LL and tree).
func NCCLAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	var cands []prepare
	protos := []twosided.Proto{twosided.ProtoSimple}
	if size <= llSizeCap {
		protos = append(protos, twosided.ProtoLL)
	}
	for _, proto := range protos {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, proto)
		})
		if env.Nodes > 1 && size <= llSizeCap {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, proto)
			})
		}
	}
	return Best(env, size, size, cands...)
}

// MSCCLAllReduce measures tuned MSCCL-sim (best custom algorithm per size).
func MSCCLAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	var cands []prepare
	protos := []twosided.Proto{twosided.ProtoSimple}
	if size <= llSizeCap {
		protos = append(protos, twosided.ProtoLL)
	}
	if env.Nodes == 1 {
		if size <= 256<<10 {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceAllPairs1P(in, out)
			})
		}
		for _, proto := range protos {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceAllPairs2P(in, out, proto)
			})
		}
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, twosided.ProtoSimple)
		})
	} else {
		for _, proto := range protos {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, proto)
			})
		}
	}
	return Best(env, size, size, cands...)
}

// MSCCLPPAllGather measures the best MSCCL++ AllGather for a gathered size.
func MSCCLPPAllGather(env *topology.Env, total int64) (sim.Duration, string, error) {
	shard := total / int64(env.TotalGPUs())
	var cands []prepare
	for _, a := range collective.New(machine.New(env)).AllGatherAlgorithms() {
		cands = append(cands, a.Prepare)
	}
	return Best(env, shard, total, cands...)
}

// NCCLAllGather measures NCCL-sim's ring AllGather.
func NCCLAllGather(env *topology.Env, total int64) (sim.Duration, string, error) {
	shard := total / int64(env.TotalGPUs())
	var cands []prepare
	protos := []twosided.Proto{twosided.ProtoSimple}
	if total <= llSizeCap {
		protos = append(protos, twosided.ProtoLL)
	}
	for _, proto := range protos {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllGatherRing(in, out, proto)
		})
	}
	return Best(env, shard, total, cands...)
}

// MSCCLAllGather measures MSCCL-sim's all-pairs AllGather (plus ring).
func MSCCLAllGather(env *topology.Env, total int64) (sim.Duration, string, error) {
	shard := total / int64(env.TotalGPUs())
	var cands []prepare
	protos := []twosided.Proto{twosided.ProtoSimple}
	if total <= llSizeCap {
		protos = append(protos, twosided.ProtoLL)
	}
	for _, proto := range protos {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return mscclsim.New(c, 0).PrepareAllGatherAllPairs(in, out, proto)
		})
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllGatherRing(in, out, proto)
		})
	}
	return Best(env, shard, total, cands...)
}

// Geomean returns the geometric mean of positive ratios.
func Geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// HumanSize formats a byte count like the paper's axes (1K, 2M, 1G).
func HumanSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// PrintLatencyTable renders a latency (us) comparison for small sizes.
func PrintLatencyTable(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n%s — latency (us)\n", title)
	printTable(w, series, func(p Point) string { return fmt.Sprintf("%.2f", p.LatencyUS()) })
}

// PrintBandwidthTable renders an AlgoBW (GB/s) comparison for large sizes.
func PrintBandwidthTable(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n%s — AlgoBW (GB/s)\n", title)
	printTable(w, series, func(p Point) string { return fmt.Sprintf("%.1f", p.AlgoBW()) })
}

func printTable(w io.Writer, series []Series, cell func(Point) string) {
	if len(series) == 0 {
		return
	}
	var sizes []int64
	for _, p := range series[0].Points {
		sizes = append(sizes, p.Size)
	}
	header := []string{"size"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i, size := range sizes {
		row := []string{HumanSize(size)}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, cell(s.Points[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// SpeedupSummary prints per-size speedups of target over base and their
// geomean/max.
func SpeedupSummary(w io.Writer, label string, base, target Series) (geo, max float64) {
	var ratios []float64
	for i := range target.Points {
		if i >= len(base.Points) {
			break
		}
		r := float64(base.Points[i].Dur) / float64(target.Points[i].Dur)
		ratios = append(ratios, r)
		if r > max {
			max = r
		}
	}
	geo = Geomean(ratios)
	fmt.Fprintf(w, "%s: geomean %.2fx, max %.2fx\n", label, geo, max)
	return geo, max
}
