package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
)

// expectedJSON holds the virtual results the program produced at the commit
// that defined this benchmark, keyed like checker keys: every coll-sweep
// case (seed-independent) and every serve cell of the default seed.
// Regenerate with -record after an intentional change of virtual time.
//
//go:embed expected.json
var expectedJSON []byte

// defaultSeed is the workload seed whose serve digests are committed.
const defaultSeed = 1

// checker compares every virtual result against the committed value for its
// key, or, for keys with no committed value, against the first value this
// run observed, so every repetition must agree.
type checker struct {
	expected   map[string]string
	seen       map[string]string
	mismatches []string // the first maxMismatches, for the log
}

const maxMismatches = 20

func newChecker(expected map[string]string) *checker {
	return &checker{expected: expected, seen: make(map[string]string)}
}

// loadExpected returns the committed values of one workload.
func loadExpected(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("parsing expected.json: %w", err)
	}
	return all[workload], nil
}

// check records value under key and reports whether it matches.
func (c *checker) check(key, value string) bool {
	want, ok := c.expected[key]
	if !ok {
		want, ok = c.seen[key]
	}
	if !ok {
		c.seen[key] = value
		return true
	}
	if _, seen := c.seen[key]; !seen {
		c.seen[key] = value
	}
	if want != value {
		if len(c.mismatches) < maxMismatches {
			c.mismatches = append(c.mismatches, fmt.Sprintf("%s: got %s, want %s", key, value, want))
		}
		return false
	}
	return true
}

// digest folds every observed key and value, in key order, into one hash.
func (c *checker) digest() string {
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, c.seen[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
