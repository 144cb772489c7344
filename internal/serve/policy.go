package serve

// Routing policies: how an arrival-splitting router picks the replica for
// each request. A Policy instance is stateful and bound to one RunRouted
// call — construct a fresh one per simulation (round-robin carries a
// cursor; sharing it across concurrent runs would race and break
// determinism).

import (
	"fmt"
	"sort"
	"strings"
)

// Policy selects the replica each arriving request is dispatched to.
type Policy interface {
	// Name is the stable policy identifier used in reports and CLI flags.
	Name() string
	// Pick returns the index into replicas for req. It is called in engine
	// context at req's arrival instant; implementations may inspect
	// replica state (InFlightTokens, QueuedRequests, HasPrefix, ...) and
	// their own bookkeeping, but must be deterministic functions of the
	// call sequence and that state.
	Pick(req Request, replicas []*Scheduler) int
}

// roundRobin cycles through replicas in submission order, blind to load.
type roundRobin struct{ next int }

// NewRoundRobin returns the round-robin policy: request i goes to replica
// i mod N. The baseline every load-aware policy is judged against.
func NewRoundRobin() Policy { return &roundRobin{} }

func (*roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Pick(_ Request, replicas []*Scheduler) int {
	i := r.next % len(replicas)
	r.next++
	return i
}

// jsq joins the shortest queue measured in in-flight tokens.
type jsq struct{}

// NewJSQ returns the join-shortest-queue policy. Load is measured in
// in-flight *tokens* (prompt + output tokens submitted minus tokens
// processed), not request count: one 8K-token prompt is more load than
// ten short chat turns, and routing on request count would systematically
// overload whichever replica drew the long prompts. Ties break toward the
// lowest replica index, keeping the policy deterministic.
func NewJSQ() Policy { return jsq{} }

func (jsq) Name() string { return "jsq" }

func (jsq) Pick(_ Request, replicas []*Scheduler) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].InFlightTokens() < replicas[best].InFlightTokens() {
			best = i
		}
	}
	return best
}

// prefixAffinity pins each prefix group to a replica by hash; ungrouped
// requests fall back to JSQ.
type prefixAffinity struct{ fallback Policy }

// NewPrefixAffinity returns the prefix-cache-affinity policy: requests
// carrying a PrefixGroup are pinned to replica Mix64(group) mod N, so the
// group's shared prompt prefix is prefilled once per replica and every
// subsequent member gets the prefill discount (Scheduler's KV
// prefix-reuse model). Requests without a group route by JSQ. The
// trade-off is classic affinity-vs-balance: hot groups can skew load,
// which the routing scenarios quantify against pure JSQ.
func NewPrefixAffinity() Policy { return &prefixAffinity{fallback: NewJSQ()} }

func (*prefixAffinity) Name() string { return "prefix-affinity" }

func (a *prefixAffinity) Pick(req Request, replicas []*Scheduler) int {
	if req.PrefixGroup == 0 {
		return a.fallback.Pick(req, replicas)
	}
	return int(Mix64(req.PrefixGroup) % uint64(len(replicas)))
}

// policyFactories maps CLI/scenario names (and their short aliases) to
// constructors. Registered here so PolicyByName and PolicyNames stay in
// lockstep; adding a policy means implementing the interface and adding
// one row.
var policyFactories = map[string]func() Policy{
	"round-robin":     NewRoundRobin,
	"rr":              NewRoundRobin,
	"jsq":             NewJSQ,
	"prefix-affinity": NewPrefixAffinity,
	"affinity":        NewPrefixAffinity,
}

// PolicyByName constructs a fresh policy instance from its name or alias
// (round-robin/rr, jsq, prefix-affinity/affinity).
func PolicyByName(name string) (Policy, error) { return byName("routing", policyFactories, name) }

// PolicyNames returns the canonical policy names (aliases excluded),
// sorted.
func PolicyNames() []string { return registryNames(policyFactories) }

// byName constructs a fresh instance from a name registry of routing or
// scale policies.
func byName[T interface{ Name() string }](kind string, factories map[string]func() T, name string) (T, error) {
	f, ok := factories[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("serve: unknown %s policy %q (have %s)", kind, name, strings.Join(registryNames(factories), ", "))
	}
	return f(), nil
}

// registryNames returns a registry's canonical names — aliases, whose
// instances report another name, excluded — sorted.
func registryNames[T interface{ Name() string }](factories map[string]func() T) []string {
	names := make([]string, 0, len(factories))
	for name, f := range factories {
		if f().Name() == name {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
