package explore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

// legacyKey is the seed implementation's string node key: crash budget spent
// plus the fully materialized configuration key.
func legacyKey(cfg *sim.Configuration, crashes int) string {
	return fmt.Sprintf("c%d|%s", crashes, cfg.Key())
}

// legacyBFS walks the reachable space of e breadth-first, deduplicating
// configurations by key (the legacy string key or a fingerprint key), and
// calls visit on every distinct configuration in BFS order, the start
// first. It stops as soon as visit returns true and reports whether it did;
// past maxConfigs distinct configurations it fails the test.
func legacyBFS(t *testing.T, e *Explorer, key func(*sim.Configuration, int) any, maxConfigs int, visit func(*sim.Configuration, int) bool) bool {
	t.Helper()
	start, err := e.initial()
	if err != nil {
		t.Fatal(err)
	}
	type qent struct {
		cfg     *sim.Configuration
		crashes int
	}
	seen := map[any]bool{key(start, 0): true}
	if visit(start, 0) {
		return true
	}
	queue := []qent{{cfg: start}}
	for len(queue) > 0 {
		if len(seen) > maxConfigs {
			t.Fatalf("state space exceeds %d configurations; shrink the instance", maxConfigs)
		}
		cur := queue[0]
		queue = queue[1:]
		for _, act := range e.actions(cur.cfg, cur.crashes) {
			if !e.sc.plan(cur.cfg, act) {
				continue
			}
			next := e.sc.commit()
			crashes := cur.crashes
			if act.Crash {
				crashes++
			}
			k := key(next, crashes)
			if seen[k] {
				e.release(next)
				continue
			}
			seen[k] = true
			if visit(next, crashes) {
				return true
			}
			queue = append(queue, qent{cfg: next, crashes: crashes})
		}
	}
	return false
}

// stringKey dedups legacyBFS by the legacy string key.
func stringKey(cfg *sim.Configuration, crashes int) any { return legacyKey(cfg, crashes) }

// reachedBy returns the legacy string identity of every configuration
// legacyBFS reaches when deduplicating by key.
func reachedBy(t *testing.T, e *Explorer, key func(*sim.Configuration, int) any, maxConfigs int) map[string]bool {
	t.Helper()
	reached := map[string]bool{}
	legacyBFS(t, e, key, maxConfigs, func(cfg *sim.Configuration, crashes int) bool {
		reached[legacyKey(cfg, crashes)] = true
		return false
	})
	return reached
}

// enumerate walks the full reachable space of e (which must be exhaustive
// within maxConfigs), deduplicating either by the legacy string key or by
// the fingerprint key, and returns the canonical (string) identity of every
// distinct configuration visited. Equal result sets across the two modes
// prove the fingerprint dedup neither merges distinct configurations
// (collision) nor re-expands equal ones (incrementality bug).
func enumerate(t *testing.T, e *Explorer, byFingerprint bool, maxConfigs int) map[string]bool {
	t.Helper()
	if byFingerprint {
		return reachedBy(t, e, func(cfg *sim.Configuration, crashes int) any { return cfgKey(cfg, crashes) }, maxConfigs)
	}
	return reachedBy(t, e, stringKey, maxConfigs)
}

// diffInstance is one small, exhaustively explorable system.
type diffInstance struct {
	name    string
	alg     sim.Algorithm
	inputs  []sim.Value
	live    []sim.ProcessID
	crashes int
}

func diffInstances() []diffInstance {
	return []diffInstance{
		{"minwait-n3", algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 0},
		{"minwait-n3-crash", algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 1},
		{"minwait-n4-sub3", algorithms.MinWait{F: 2}, []sim.Value{0, 1, 2, 3}, []sim.ProcessID{1, 2, 4}, 1},
		{"flpkset-n3", algorithms.FLPKSet{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 0},
		{"firstheard-n4", algorithms.FirstHeard{}, []sim.Value{0, 1, 2, 3}, []sim.ProcessID{1, 2, 3, 4}, 0},
	}
}

// explorer builds the instance's explorer on the kernel's serial loop.
func (d diffInstance) explorer() *Explorer { return d.reduced(false, false) }

// reduced builds the instance's serial explorer with the given reductions.
func (d diffInstance) reduced(symmetry, por bool) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		Workers:    1,
		Symmetry:   symmetry,
		POR:        por,
	})
}

// TestFingerprintDedupVisitsLegacySet asserts, per instance, that the
// fingerprint-keyed BFS reaches exactly the configuration set of the legacy
// string-keyed BFS.
func TestFingerprintDedupVisitsLegacySet(t *testing.T) {
	for _, d := range diffInstances() {
		t.Run(d.name, func(t *testing.T) {
			const maxConfigs = 400000
			legacy := enumerate(t, d.explorer(), false, maxConfigs)
			fp := enumerate(t, d.explorer(), true, maxConfigs)
			if len(legacy) != len(fp) {
				t.Fatalf("visited %d configurations with string dedup, %d with fingerprint dedup",
					len(legacy), len(fp))
			}
			for key := range legacy {
				if !fp[key] {
					t.Fatalf("fingerprint search missed configuration %s", key)
				}
			}
		})
	}
}

// TestFingerprintSearchFindsLegacyWitnesses asserts that the production
// searches find a witness exactly when the legacy string-keyed enumeration
// contains one, and that found witnesses replay to genuine violations.
func TestFingerprintSearchFindsLegacyWitnesses(t *testing.T) {
	for _, d := range diffInstances() {
		t.Run(d.name, func(t *testing.T) {
			wantDisagreement := legacyGoalReachable(t, d, func(cfg *sim.Configuration) bool {
				return cfg.Disagreement()
			})

			w, found, err := d.explorer().FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if w.Stats.Truncated {
				t.Fatalf("instance not exhaustive (visited %d)", w.Stats.Visited)
			}
			if found != wantDisagreement {
				t.Fatalf("FindDisagreement found=%t, legacy exhaustive search says %t", found, wantDisagreement)
			}
			if found {
				testutil.RevalidateWitness(t, w.Kind, w.Run)
			}
		})
	}
}

// runSignature reduces a witness run to a comparable encoding: the scheduled
// step sequence plus the final configuration's canonical key.
func runSignature(r *sim.Run) string {
	var b strings.Builder
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "(p%d c%t s%t d%d)", ev.Proc, ev.Crashed, ev.Silent, len(ev.Delivered))
	}
	b.WriteString("|")
	b.WriteString(r.Final.Key())
	return b.String()
}

// legacyGoalReachable reports whether some configuration reachable under
// string-keyed dedup satisfies goal.
func legacyGoalReachable(t *testing.T, d diffInstance, goal func(*sim.Configuration) bool) bool {
	t.Helper()
	return legacyBFS(t, d.explorer(), stringKey, math.MaxInt, func(cfg *sim.Configuration, _ int) bool { return goal(cfg) })
}
