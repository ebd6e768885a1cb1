// Package service implements the verification-as-a-service layer behind
// cmd/ksetd: an HTTP/JSON job server that accepts impossibility-check and
// consensus-failure-search jobs, runs them on a bounded worker pool through
// the kset.Searcher API with per-job context cancellation, and caches
// completed verdicts content-addressed by the instance digest — a repeat
// query for the same instance is a cache hit, not a re-search.
package service

import (
	"fmt"

	"kset"
)

// Job goals.
const (
	// GoalImpossibility runs the full Theorem 1 pipeline (conditions
	// (A)-(D), pasted run, verdict) on the instance.
	GoalImpossibility = "impossibility"
	// GoalSearch runs the standalone condition-(C) search: a disagreement
	// or blocking witness hunt over the full system with a crash budget.
	GoalSearch = "search"
)

// InstanceSpec is the wire form of a verification job: everything that
// determines the verdict, in the CLI spellings of cmd/impossibility. The
// digest of a spec — and therefore the verdict-cache key — covers exactly
// the fields that can change the result: Workers and Store are excluded
// (results are bit-identical across them), everything else but the ignored
// Packed is included.
type InstanceSpec struct {
	// Alg names the algorithm under test (kset.NewAlgorithm spelling).
	Alg string `json:"alg"`
	// N is the system size; F parameterizes the resilience-bound
	// algorithms and the Theorem 2 partition.
	N int `json:"n"`
	F int `json:"f"`
	// K is the agreement parameter. Required for the impossibility goal;
	// ignored by the search goal.
	K int `json:"k,omitempty"`
	// Goal selects the pipeline: GoalImpossibility (default) or GoalSearch.
	Goal string `json:"goal,omitempty"`
	// Groups optionally fixes explicit decider groups (1-based process
	// ids) for the impossibility goal; empty uses the Theorem 2 partition.
	Groups [][]int `json:"groups,omitempty"`
	// Budget is the adversary's crash budget: inside <D-bar> for the
	// impossibility goal (default 1), over the full system for the search
	// goal (default 1).
	Budget int `json:"budget,omitempty"`
	// MaxConfigs bounds the exploration (default 80000).
	MaxConfigs int `json:"max_configs,omitempty"`
	// Strategy selects the impossibility goal's search order: "dfs"
	// (default) or "bfs". The search goal always runs breadth-first.
	Strategy string `json:"strategy,omitempty"`
	// Workers caps the search goroutines (0 = GOMAXPROCS). Not part of
	// the digest: results are bit-identical at every worker count.
	Workers int `json:"workers,omitempty"`
	// Symmetry and POR arm the search-space reductions.
	Symmetry bool `json:"symmetry,omitempty"`
	POR      bool `json:"por,omitempty"`
	// Store selects the memory regime: "" or "inmem", "frontier", or
	// "spill". Not part of the digest.
	Store string `json:"store,omitempty"`
	// Packed is ignored. It selected the configuration engine, which is now
	// chosen per algorithm (the packed engine wherever one exists, with
	// bit-identical results); it stays decodable so that specs carrying it
	// are not rejected as unknown fields.
	//
	// Deprecated: omit it; any value is accepted and ignored.
	Packed string `json:"packed,omitempty"`
	// Faults selects the fault adversary (explore.ParseFaults spelling).
	Faults string `json:"faults,omitempty"`
	// Checkpoint opts the job into the server's checkpoint directory:
	// a cancelled or truncated breadth-first search pauses resumably.
	// Requires the "bfs" strategy.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// withDefaults returns the spec with the documented defaults filled in.
func (sp InstanceSpec) withDefaults() InstanceSpec {
	if sp.Goal == "" {
		sp.Goal = GoalImpossibility
	}
	if sp.Budget == 0 {
		sp.Budget = 1
	}
	if sp.MaxConfigs == 0 {
		sp.MaxConfigs = 80000
	}
	if sp.Strategy == "" && sp.Goal == GoalImpossibility {
		sp.Strategy = "dfs"
	}
	return sp
}

// validate rejects malformed specs with the error the submit handler turns
// into a 400. It normalizes nothing; call on a withDefaults() result.
func (sp InstanceSpec) validate() error {
	if sp.N < 2 {
		return fmt.Errorf("service: n = %d < 2", sp.N)
	}
	if _, err := kset.NewAlgorithm(sp.Alg, sp.F); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	switch sp.Goal {
	case GoalImpossibility:
		if sp.K < 1 {
			return fmt.Errorf("service: impossibility goal requires k >= 1 (got %d)", sp.K)
		}
		switch sp.Strategy {
		case "dfs", "bfs":
		default:
			return fmt.Errorf("service: unknown strategy %q (want \"dfs\" or \"bfs\")", sp.Strategy)
		}
	case GoalSearch:
	default:
		return fmt.Errorf("service: unknown goal %q (want %q or %q)", sp.Goal, GoalImpossibility, GoalSearch)
	}
	if sp.Budget < 0 {
		return fmt.Errorf("service: negative budget %d", sp.Budget)
	}
	if sp.MaxConfigs < 1 {
		return fmt.Errorf("service: max_configs = %d < 1", sp.MaxConfigs)
	}
	if err := (kset.Options{Store: sp.Store, Faults: sp.Faults}).Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if sp.Checkpoint && sp.Goal == GoalImpossibility && sp.Strategy != "bfs" {
		return fmt.Errorf("service: checkpoint requires strategy \"bfs\"")
	}
	return nil
}

// options maps the spec's search knobs onto a kset.Options value;
// checkpointDir is the server's checkpoint directory, applied only when the
// spec opted in.
func (sp InstanceSpec) options(checkpointDir string) kset.Options {
	o := kset.Options{
		Workers:  sp.Workers,
		Symmetry: sp.Symmetry,
		POR:      sp.POR,
		Store:    sp.Store,
		Faults:   sp.Faults,
	}
	if sp.Checkpoint {
		o.Checkpoint = checkpointDir
	}
	return o
}

// Verdict is the deterministic result of a completed job: a pure function
// of the InstanceSpec digest fields, safe to cache and compare bit for bit.
// It deliberately carries no timing, host, or job-id information.
type Verdict struct {
	// Digest is the instance's content address (16 hex digits).
	Digest string `json:"digest"`
	// Goal echoes the spec's goal.
	Goal string `json:"goal"`
	// Summary is the human-readable one-liner (Report.Summary for the
	// impossibility goal, a witness description for the search goal).
	Summary string `json:"summary"`
	// Refuted and Violation report the impossibility goal's verdict.
	Refuted   bool   `json:"refuted,omitempty"`
	Violation string `json:"violation,omitempty"`
	// CondA..CondD report the condition statuses of the impossibility goal.
	CondA string `json:"cond_a,omitempty"`
	CondB string `json:"cond_b,omitempty"`
	CondC string `json:"cond_c,omitempty"`
	CondD string `json:"cond_d,omitempty"`
	// DistinctDecisions counts the pasted run's decision census
	// (impossibility goal).
	DistinctDecisions int `json:"distinct_decisions,omitempty"`
	// Found reports whether the search goal found a witness.
	Found bool `json:"found,omitempty"`
	// WitnessKind/WitnessDetail describe the found witness ("disagreement"
	// or "blocking"), for both goals.
	WitnessKind   string `json:"witness_kind,omitempty"`
	WitnessDetail string `json:"witness_detail,omitempty"`
	// Visited counts explored configurations; Truncated reports a search
	// stopped at its budget.
	Visited   int  `json:"visited"`
	Truncated bool `json:"truncated,omitempty"`
}
