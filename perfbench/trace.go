package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a public function of the
// program. Times are host nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int64  `json:"op"`     // timed op the span belongs to, -1 during set-up
	// AR is the counted AllReduce-pricing time spent inside the span; it is
	// charged to the inference layer rather than to the span's own layer.
	AR int64 `json:"ar_ns,omitempty"`
}

// tracer records spans at the public-call boundaries the benchmark crosses.
// A nil or switched-off tracer records nothing, so the untraced runs pay
// only a nil check per call. Spans stay in memory until write.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int32
	op    int64

	// AllReduce pricing calls from inside serve are too many to span; they
	// are counted and timed by the wrapper serveBench.ar installs.
	arCalls, arNs, arMisses int64
}

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op, AR: t.arNs})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	s.AR = t.arNs - s.AR
	t.stack = t.stack[:len(t.stack)-1]
}

// setOp tags the spans that follow with a timed op id (-1: set-up).
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

// mark returns the current span count, so a later selfTimes call can cover
// only the spans recorded after it.
func (t *tracer) mark() int { return len(t.spans) }

// selfTimes sums, per span name, the self time of the spans recorded since
// mark: each span's duration minus its child spans and the AllReduce time
// counted inside it.
func (t *tracer) selfTimes(mark int) map[string]int64 {
	self := make([]int64, len(t.spans)-mark)
	for i := mark; i < len(t.spans); i++ {
		s := t.spans[i]
		d := s.End - s.Start
		self[i-mark] += d - s.AR
		if p := int(s.Parent); p >= mark {
			// The parent's AR already includes the child's.
			self[p-mark] -= d - s.AR
		}
	}
	out := make(map[string]int64)
	for i, v := range self {
		out[t.spans[mark+i].Name] += v
	}
	return out
}

// calls counts, per span name, the spans recorded since mark.
func (t *tracer) calls(mark int) map[string]int {
	out := make(map[string]int)
	for _, s := range t.spans[mark:] {
		out[s.Name]++
	}
	return out
}

// layerOf maps a span name to its layer: the package the call went into.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// byLayer folds per-name self times into per-layer totals.
func byLayer(self map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range self {
		out[layerOf(name)] += v
	}
	return out
}

// sumPrefix adds the values of every name starting with prefix.
func sumPrefix(m map[string]int64, prefix string) int64 {
	var s int64
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}

// report prints each layer's self-time share of wall, the counted AR time
// and the tracing overhead.
func report(w io.Writer, workload string, layers map[string]int64, arNs, wallNs, overheadNs int64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(w, "%s traced pass: wall %.3f s, tracing overhead %+.3f s\n", workload, float64(wallNs)/1e9, float64(overheadNs)/1e9)
	var covered int64
	for _, n := range names {
		covered += layers[n]
		fmt.Fprintf(w, "  %-12s self %8.3f s  %5.1f%%\n", n, float64(layers[n])/1e9, 100*float64(layers[n])/float64(wallNs))
	}
	covered += arNs
	fmt.Fprintf(w, "  %-12s      %8.3f s  %5.1f%%\n", "inference.AR", float64(arNs)/1e9, 100*float64(arNs)/float64(wallNs))
	fmt.Fprintf(w, "  covered %.1f%% of wall\n", 100*float64(covered)/float64(wallNs))
}

// write stores every span as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
