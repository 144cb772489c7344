// Package scenario is the registry of the repository's artifacts: every
// table and figure the repository reproduces (Table 1, Figures 7-13, the
// DSL-vs-Primitive comparison, the gain-breakdown ablations) and every
// serving-stack artifact grown on top of them (the serve-* scenarios:
// continuous batching, multi-replica routing, prefix-cache affinity,
// disaggregated prefill/decode) is a named, self-describing scenario with
// a deterministic writer.
//
// A scenario emits two views of one run:
//
//   - the human-readable text the original bench commands print, and
//   - a canonical machine-readable benchkit.Record (exact virtual-time
//     durations, canonical JSON encoding).
//
// Both are deterministic, so both are committed as goldens under
// testdata/golden/ and diffed mechanically by cmd/paperbench -check and by
// the golden replay in scenario_test.go. cmd/paperbench -run <names> runs
// any subset.
package scenario

import (
	"fmt"
	"io"
	"sort"

	"mscclpp/internal/benchkit"
)

// Scenario is one named paper artifact.
type Scenario struct {
	// Name is the stable registry key; it is also the golden-file stem
	// (testdata/golden/<Name>.txt and .json), so renaming a scenario
	// retires its goldens.
	Name string
	// Title is the human-facing description shown by paperbench -list and
	// recorded in the JSON record.
	Title string
	// Slow marks scenarios excluded from the default `go test` golden
	// replay; they still run under `go test -tags slow` and in the CI
	// golden-artifact job (paperbench -run all -check).
	Slow bool
	// Run produces the artifact. All output must go through r so the text
	// and the machine-readable record stay in lockstep.
	Run func(r *Report) error
}

var (
	order  []string
	byName = map[string]Scenario{}
)

// Register adds a scenario to the registry. Registration order is
// presentation order (All, paperbench -run all). It panics on duplicate or
// malformed registrations: the registry is assembled in init and a bad
// entry is a programming error.
func Register(s Scenario) {
	switch {
	case s.Name == "":
		panic("scenario: Register with empty Name")
	case s.Title == "":
		panic(fmt.Sprintf("scenario %q: Register with empty Title", s.Name))
	case s.Run == nil:
		panic(fmt.Sprintf("scenario %q: Register with nil Run", s.Name))
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("scenario %q: duplicate registration", s.Name))
	}
	byName[s.Name] = s
	order = append(order, s.Name)
}

// All returns every registered scenario in registration order.
func All() []Scenario {
	out := make([]Scenario, 0, len(order))
	for _, name := range order {
		out = append(out, byName[name])
	}
	return out
}

// Get returns the named scenario.
func Get(name string) (Scenario, bool) {
	s, ok := byName[name]
	return s, ok
}

// Names returns the sorted scenario names (for error messages and -list
// style completion; presentation order is All's).
func Names() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// Exec runs the scenario, streaming the human-readable text to w (which
// may be nil to discard it) and returning the machine-readable record.
func (s Scenario) Exec(w io.Writer) (*benchkit.Record, error) {
	rec := &benchkit.Record{Name: s.Name, Title: s.Title}
	if err := s.Run(NewReport(w, rec)); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return rec, nil
}
