// Package faultinject provides deterministic, seedable fault points
// for testing failure paths (DESIGN.md §12). Production code marks a
// potential failure site with a registry key — faultinject.Err("...")
// — and behaves normally when the site returns nil. Tests Enable a
// Plan that makes chosen sites fail at chosen hit counts, so every
// retry, drop-from-index, and replay path is exercised by injected faults
// rather than hoped-for ones.
//
// The package is zero-overhead in production: with no plan enabled,
// Err is a single atomic pointer load. Faults are deterministic —
// a site fails on explicitly listed hit indices, on every k-th hit,
// or on a seeded pseudo-random subset derived from num.Mix, never
// from wall-clock or global randomness — so a failing test replays
// exactly.
//
// Site names are path-like, "<package>/<component>.<operation>"
// (e.g. "sim/store.load", "serve/sse.stream"); the wired-in sites are
// listed in DESIGN.md §12.
package faultinject

import (
	"fmt"
	"sync/atomic"

	"repro/internal/num"
)

// Rule decides which hits of one site fail. The clauses are OR-ed: a
// hit fails when any enabled clause selects it.
type Rule struct {
	// Nth lists explicit 1-based hit indices that fail.
	Nth []int
	// First makes the first k hits fail and every later hit succeed —
	// the "transient outage that heals" shape chaos tests lean on;
	// 0 disables the clause.
	First int
	// Every makes every k-th hit fail (1-based: hits k, 2k, ...);
	// 0 disables the clause. Every: 1 fails every hit.
	Every int
	// Rate enables the seeded pseudo-random clause: roughly one hit in
	// Rate fails, selected deterministically from Seed and the hit
	// index. 0 disables the clause.
	Rate uint64
	// Seed drives the Rate clause.
	Seed uint64
}

// fails reports whether 1-based hit n trips the rule.
func (r Rule) fails(n int) bool {
	for _, k := range r.Nth {
		if n == k {
			return true
		}
	}
	if r.First > 0 && n <= r.First {
		return true
	}
	if r.Every > 0 && n%r.Every == 0 {
		return true
	}
	if r.Rate > 0 && num.Mix(r.Seed^uint64(n)*0x9e3779b97f4a7c15)%r.Rate == 0 {
		return true
	}
	return false
}

// Plan maps site names to failure rules. Sites absent from the plan
// never fail (and are not counted).
type Plan map[string]Rule

// site is the per-site runtime state: the rule plus a hit counter.
type site struct {
	rule Rule
	hits atomic.Int64
}

// active is the enabled plan, or nil. The site map is immutable after
// Enable, so Err needs no lock: one pointer load, one map lookup.
var active atomic.Pointer[map[string]*site]

// Enable installs a plan, replacing any previous one and resetting all
// hit counters. Tests must pair it with a deferred Disable; leaving a
// plan enabled across tests makes later failures non-local.
func Enable(p Plan) {
	m := make(map[string]*site, len(p))
	for name, rule := range p {
		m[name] = &site{rule: rule}
	}
	active.Store(&m)
}

// Disable removes the enabled plan; every site returns to nil.
func Disable() { active.Store(nil) }

// Fault is the error an injected failure returns.
type Fault struct {
	// Site is the registry key that fired; Hit is the 1-based hit
	// index at which it fired.
	Site string
	Hit  int
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (hit %d)", f.Site, f.Hit)
}

// Err counts one hit of the site and returns a *Fault when the
// enabled plan says this hit fails, nil otherwise. With no plan
// enabled it returns nil without counting.
func Err(name string) error {
	m := active.Load()
	if m == nil {
		return nil
	}
	s, ok := (*m)[name]
	if !ok {
		return nil
	}
	n := int(s.hits.Add(1))
	if s.rule.fails(n) {
		return &Fault{Site: name, Hit: n}
	}
	return nil
}

// Hits returns how many times the site has been reached since the
// current plan was enabled (0 when disabled or unplanned). Tests use
// it to assert a fault point is actually wired into the code path
// under test — a passing retry test around an unreached site proves
// nothing.
func Hits(name string) int {
	m := active.Load()
	if m == nil {
		return 0
	}
	s, ok := (*m)[name]
	if !ok {
		return 0
	}
	return int(s.hits.Load())
}
