package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"kset/internal/explore"
	"kset/internal/sched"
	"kset/internal/sim"
)

// Status reports the outcome of checking one of Theorem 1's conditions on a
// concrete algorithm.
type Status int

// Condition outcomes.
const (
	// StatusUnchecked means the pipeline did not reach the condition.
	StatusUnchecked Status = iota
	// StatusSatisfied means the condition's witness was constructed and
	// machine-checked.
	StatusSatisfied
	// StatusFailed means the condition could not be established for this
	// algorithm (for condition (A) this is the expected outcome for a
	// correct algorithm: isolated partitions refuse to decide).
	StatusFailed
	// StatusInconclusive means a bounded search ended without a witness but
	// without exhausting the space.
	StatusInconclusive
)

func (s Status) String() string {
	switch s {
	case StatusSatisfied:
		return "satisfied"
	case StatusFailed:
		return "failed"
	case StatusInconclusive:
		return "inconclusive"
	default:
		return "unchecked"
	}
}

// Instance describes one application of the Theorem 1 engine: the algorithm
// under test, the proposal vector (distinct values, as the theorem
// requires), the partition, and the model plumbing.
type Instance struct {
	Alg    sim.Algorithm
	Inputs []sim.Value
	Spec   PartitionSpec

	// SoloOracle, when non-nil, supplies the failure-detector oracle for the
	// solo run of group index i (0-based; len(Spec.Groups) is not passed —
	// solo runs exist only for the decider groups). Nil for detector-free
	// models.
	SoloOracle func(i int, group []sim.ProcessID) sched.Oracle

	// DBarCrashBudget is the number of crashes the adversary may use inside
	// the subsystem <D-bar> (condition (C)): 1 for Theorem 2's model,
	// |D-bar|-1 for the wait-free setting of Theorem 10.
	DBarCrashBudget int

	// DBarOracle, when non-nil, supplies detector values to the restricted
	// algorithm during the subsystem exploration.
	DBarOracle sched.Oracle

	// Faults selects the fault model of the condition-(C) adversary beyond
	// crashes, in explore.ParseFaults form: "" or "crash" for the crash-only
	// engine, or "model[:budget[:maxfaulty]]" with model send-omission,
	// receive-omission, or byzantine (e.g. "send-omission:1:1"). Witness
	// replay reproduces fault steps exactly, so conditions (B)/(D) still
	// verify on the pasted run.
	Faults string

	// MaxSteps bounds each constructed run; MaxConfigs bounds the subsystem
	// exploration. Zero means package defaults.
	MaxSteps   int
	MaxConfigs int

	// SearchStrategy selects the subsystem exploration order: "dfs" (the
	// default — it dives to complete executions, which finds witnesses in
	// subsystems whose breadth drowns BFS) or "bfs" (shortest witnesses).
	SearchStrategy string
	// SearchWorkers caps the goroutines of the condition-(C) exploration
	// (0 = GOMAXPROCS, 1 = sequential). Only breadth-first searches
	// parallelize — DFS order is inherently serial — so this takes effect
	// with SearchStrategy "bfs". A DBarOracle queried from a parallel
	// search must be pure and safe for concurrent use.
	SearchWorkers int

	// Symmetry enables orbit-canonical revisit detection in the
	// condition-(C) exploration: configurations that are renamings of each
	// other under process permutations preserving the proposal assignment
	// and the D-bar membership are explored once (explore.Options.Symmetry).
	// Note that Theorem 1 instances propose distinct values, so the
	// stabilizer is trivial and the knob changes nothing there; it pays off
	// for uniform- or block-input vetting searches. A DBarOracle must be
	// symmetric under the same renamings.
	Symmetry bool

	// SearchStore selects the memory regime of the condition-(C)
	// exploration's breadth-first searches: "" or "inmem" (the default)
	// keeps every level's generation records in memory, "frontier" retains
	// only the compact fingerprint visited set plus the current and next
	// BFS levels (witnesses reconstruct by bounded re-search), "spill"
	// streams the records to disk. Depth-first searches ignore it; results
	// are bit-identical in every mode (see explore.Options.Store).
	SearchStore string

	// Checkpoint, when non-empty, names a directory in which truncated
	// breadth-first condition-(C) searches persist their paused state and
	// from which a later run of the same instance resumes; requires
	// SearchStrategy "bfs" (see explore.Options.Checkpoint).
	Checkpoint string

	// Ctx, when non-nil, cancels the condition-(C) exploration
	// cooperatively: a cancelled search stops at the next poll point with
	// its truncation flag set (explore.Options.Context), so the report comes
	// back inconclusive rather than erroring, and — with Checkpoint set — the
	// paused state is persisted for a later resume. The solo runs and the
	// pasting of conditions (A)/(B)/(D) are not interruptible; they are
	// cheap deterministic replays.
	Ctx context.Context

	// OnSearchProgress, when non-nil, receives periodic progress from the
	// condition-(C) exploration (explore.Options.OnProgress): the cumulative
	// visited count and the sealed BFS level, or level -1 from depth-first
	// searches, which do not track depth. Called from the search goroutine;
	// must be fast.
	OnSearchProgress func(visited, level int)

	// OnSnapshotError, when non-nil, is notified once if the condition-(C)
	// exploration's best-effort level-boundary checkpoint snapshots start
	// failing (explore.Options.OnSnapshotError): the verdict is unaffected
	// but crash durability degraded. CondCStats.SnapshotFailed records the
	// same fact on the report.
	OnSnapshotError func(error)

	// POR enables commutativity-based partial-order reduction in the
	// condition-(C) exploration (explore.Options.POR): once every live
	// process of <D-bar> has provably finished sending, redundant
	// interleavings of commuting steps are pruned while disagreement,
	// blocking, and valence verdicts — and the crash budget's reach — are
	// preserved exactly. A full, sound no-op when a DBarOracle is set
	// (detector values may observe the reordered time and crash flags); for
	// algorithms without sim.SendQuiescent the pruning stands down while
	// the sound inert-crashed-slot key collapsing remains. Composes with
	// Symmetry.
	POR bool
}

// Report is the outcome of the pipeline: which conditions were established,
// the constructed runs, and the final verdict.
type Report struct {
	Spec PartitionSpec

	// Condition (A): solo runs of the decider groups.
	CondA       Status
	CondADetail string
	SoloRuns    []*sim.Run
	// GroupDecisions[i] lists the distinct decisions of group i's solo run.
	GroupDecisions [][]sim.Value

	// Condition (C): consensus failure in <D-bar>.
	CondC       Status
	CondCDetail string
	DBarWitness *explore.Witness

	// CondCStats aggregates the condition-(C) exploration effort across the
	// disagreement and blocking searches: Visited sums, the flags are sticky.
	// A breadth-first exploration answers both searches in one pass (see
	// explore.Explorer.FindConsensusFailure) and reports the Stats each
	// search would have, so the sum is what two separate searches report.
	// The blocking search is skipped after a disagreement witness or a
	// cancelled disagreement search. Populated even when no witness is
	// found, so callers can report search effort and cancellation for
	// inconclusive verdicts.
	CondCStats explore.Stats

	// Conditions (B) and (D): machine-checked indistinguishability between
	// the pasted run and the solo/witness runs.
	CondB Status
	CondD Status

	// The combined full-system run and its decision census.
	Pasted          *sim.Run
	DistinctDecided []sim.Value
	BlockedInPasted []sim.ProcessID

	// Refuted is true when a full-system violation run was constructed.
	Refuted   bool
	Violation string // "k-agreement" or "termination" when refuted
}

// Summary renders a human-readable verdict.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition: %d groups + D-bar %v; ", len(r.Spec.Groups), r.Spec.DBar())
	fmt.Fprintf(&b, "(A)=%s (B)=%s (C)=%s (D)=%s; ", r.CondA, r.CondB, r.CondC, r.CondD)
	if r.Refuted {
		fmt.Fprintf(&b, "REFUTED: %s violation", r.Violation)
		if r.Violation == "k-agreement" {
			fmt.Fprintf(&b, " (%d distinct decisions > k=%d)", len(r.DistinctDecided), r.Spec.K)
		}
	} else {
		b.WriteString("not refuted")
		if r.CondADetail != "" {
			fmt.Fprintf(&b, " — %s", r.CondADetail)
		}
		if r.CondCDetail != "" {
			fmt.Fprintf(&b, " — %s", r.CondCDetail)
		}
	}
	return b.String()
}

// CheckImpossibility runs the full Theorem 1 pipeline on the instance. The
// returned report is never nil; err is reserved for mechanical failures
// (illegal instance), not for "the algorithm survived vetting".
func CheckImpossibility(inst Instance) (*Report, error) {
	if len(inst.Inputs) != inst.Spec.N {
		return nil, fmt.Errorf("core: %d inputs for %d processes", len(inst.Inputs), inst.Spec.N)
	}
	if err := requireDistinct(inst.Inputs); err != nil {
		return nil, err
	}
	r := &Report{Spec: inst.Spec}

	// --- Condition (A): solo runs of each decider group. ---
	inputOf := func(p sim.ProcessID) sim.Value { return inst.Inputs[p-1] }
	for i, g := range inst.Spec.Groups {
		var oracle sched.Oracle
		if inst.SoloOracle != nil {
			oracle = inst.SoloOracle(i, g)
		}
		run, err := sim.Execute(inst.Alg, inst.Inputs, sched.Solo(inst.Spec.N, g, oracle), sim.Options{MaxSteps: inst.MaxSteps})
		if err != nil && !errors.Is(err, sim.ErrHorizon) {
			return nil, fmt.Errorf("core: solo run of D_%d: %w", i+1, err)
		}
		r.SoloRuns = append(r.SoloRuns, run)
		if err != nil || !run.Final.AllDecided(g) {
			r.CondA = StatusFailed
			r.CondADetail = fmt.Sprintf("group D_%d %v cannot decide in isolation (condition (A) fails; the partition argument does not apply)", i+1, g)
			return r, nil
		}
		decs := groupDecisions(run, g)
		r.GroupDecisions = append(r.GroupDecisions, decs)
		// Validity within the group: each decision must be a group member's
		// proposal, which also guarantees cross-group distinctness.
		for _, v := range decs {
			ok := false
			for _, p := range g {
				if inputOf(p) == v {
					ok = true
					break
				}
			}
			if !ok {
				r.CondA = StatusFailed
				r.CondADetail = fmt.Sprintf("group D_%d decided %d, not proposed inside the group; distinctness of the v_i is not guaranteed", i+1, v)
				return r, nil
			}
		}
	}
	r.CondA = StatusSatisfied

	// --- Condition (C): consensus failure of A|D-bar in <D-bar>. ---
	ex, err := subsystemExplorer(inst)
	if err != nil {
		return nil, err
	}
	witness, found, disagreement, err := ex.FindConsensusFailure()
	if err != nil {
		return nil, fmt.Errorf("core: subsystem search: %w", err)
	}
	r.CondCStats = disagreement
	if witness.Kind == "blocking" {
		r.CondCStats.Visited += witness.Stats.Visited
		r.CondCStats.Truncated = r.CondCStats.Truncated || witness.Stats.Truncated
		r.CondCStats.Cancelled = r.CondCStats.Cancelled || witness.Stats.Cancelled
		r.CondCStats.SnapshotFailed = r.CondCStats.SnapshotFailed || witness.Stats.SnapshotFailed
	}
	if !found {
		if r.CondCStats.Truncated {
			r.CondC = StatusInconclusive
			if r.CondCStats.Cancelled {
				r.CondCDetail = "bounded subsystem search found no consensus failure (cancelled)"
			} else {
				r.CondCDetail = "bounded subsystem search found no consensus failure (truncated)"
			}
		} else {
			r.CondC = StatusFailed
			r.CondCDetail = "A|D-bar solves consensus in <D-bar> under the explored adversary (condition (C) fails for this algorithm/model)"
		}
		return r, nil
	}
	r.CondC = StatusSatisfied
	r.CondCDetail = witness.Detail
	r.DBarWitness = witness

	// --- Paste everything into one full-system run. ---
	pasted, err := buildPastedRun(inst, r.SoloRuns, witness)
	if err != nil {
		return nil, fmt.Errorf("core: pasting: %w", err)
	}
	r.Pasted = pasted
	r.DistinctDecided = pasted.DistinctDecisions()
	r.BlockedInPasted = pasted.Blocked

	// --- Conditions (B)/(D): machine-check indistinguishability. ---
	r.CondB = StatusSatisfied
	for i, g := range inst.Spec.Groups {
		if !sim.IndistinguishableForAll(r.SoloRuns[i], pasted, g) {
			r.CondB = StatusFailed
			return r, fmt.Errorf("core: pasted run distinguishable from solo run for D_%d", i+1)
		}
	}
	r.CondD = StatusSatisfied
	if !sim.IndistinguishableForAll(witness.Run, pasted, inst.Spec.DBar()) {
		r.CondD = StatusFailed
		return r, fmt.Errorf("core: pasted run distinguishable from subsystem witness for D-bar")
	}

	// --- Verdict. ---
	switch witness.Kind {
	case "disagreement":
		if len(r.DistinctDecided) > inst.Spec.K {
			r.Refuted = true
			r.Violation = "k-agreement"
		}
	case "blocking":
		if len(r.BlockedInPasted) > 0 {
			r.Refuted = true
			r.Violation = "termination"
		}
	}
	if !r.Refuted {
		r.CondCDetail += " (pasted run did not exceed k decisions; report inspected manually)"
	}
	return r, nil
}

// subsystemExplorer validates the instance's search knobs and builds the
// condition-(C) explorer over <D-bar>: the single construction point shared
// by CheckImpossibility and InstanceDigest, so the content address always
// reflects exactly the search the engine would run.
func subsystemExplorer(inst Instance) (*explore.Explorer, error) {
	dbar := inst.Spec.DBar()
	restricted := sim.Restrict(inst.Alg, dbar)
	// DFS (the default) dives to complete executions first, which finds
	// disagreement and blocking witnesses in subsystems too large for
	// breadth-first search; BFS instances fan the frontier out over
	// SearchWorkers goroutines with sequential-identical results.
	strategy := inst.SearchStrategy
	switch strategy {
	case "":
		strategy = "dfs"
	case "dfs", "bfs":
	default:
		// explore treats every string other than "dfs" as BFS, so a typo'd
		// "dfs" would silently run a search order that drowns in breadth and
		// reports "not refuted" where DFS refutes. Reject it here instead.
		return nil, fmt.Errorf("core: unknown SearchStrategy %q (want \"dfs\" or \"bfs\")", inst.SearchStrategy)
	}
	store, err := explore.ParseStore(inst.SearchStore)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	faults, err := explore.ParseFaults(inst.Faults)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return explore.New(restricted, inst.Inputs, explore.Options{
		Live:            dbar,
		MaxCrashes:      inst.DBarCrashBudget,
		MaxConfigs:      inst.MaxConfigs,
		Oracle:          inst.DBarOracle,
		Faults:          faults,
		Strategy:        strategy,
		Workers:         inst.SearchWorkers,
		Symmetry:        inst.Symmetry,
		POR:             inst.POR,
		Store:           store,
		Checkpoint:      inst.Checkpoint,
		Context:         inst.Ctx,
		OnProgress:      inst.OnSearchProgress,
		OnSnapshotError: inst.OnSnapshotError,
	}), nil
}

// InstanceDigest computes the content address of an instance's verdict: a
// fingerprint of everything that determines CheckImpossibility's result.
// It folds together the explorer's per-goal search digests (algorithm,
// inputs, live set, crash budget, reductions, fault model — see
// explore.(*Explorer).Digest) with the partition shape and the
// verdict-relevant bounds. SearchWorkers and SearchStore are deliberately
// excluded: results are bit-identical across them. MaxConfigs and the
// strategy are included: a truncated or differently-ordered search can
// produce a different (inconclusive vs refuted) verdict.
func InstanceDigest(inst Instance) (uint64, error) {
	if len(inst.Inputs) != inst.Spec.N {
		return 0, fmt.Errorf("core: %d inputs for %d processes", len(inst.Inputs), inst.Spec.N)
	}
	if err := requireDistinct(inst.Inputs); err != nil {
		return 0, err
	}
	ex, err := subsystemExplorer(inst)
	if err != nil {
		return 0, err
	}
	h := sim.HashSeed()
	h = sim.HashUint(h, ex.Digest("disagreement"))
	h = sim.HashUint(h, ex.Digest("blocking"))
	h = sim.HashUint(h, uint64(inst.Spec.N))
	h = sim.HashUint(h, uint64(inst.Spec.K))
	h = sim.HashUint(h, uint64(len(inst.Spec.Groups)))
	for _, g := range inst.Spec.Groups {
		h = sim.HashUint(h, uint64(len(g)))
		for _, p := range g {
			h = sim.HashUint(h, uint64(p))
		}
	}
	h = sim.HashUint(h, uint64(inst.MaxSteps))
	h = sim.HashUint(h, uint64(inst.MaxConfigs))
	strategy := inst.SearchStrategy
	if strategy == "" {
		strategy = "dfs"
	}
	h = sim.HashString(h, strategy)
	return sim.HashMix(h), nil
}

func requireDistinct(vs []sim.Value) error {
	seen := make(map[sim.Value]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("core: Theorem 1 requires distinct proposal values; %d repeats", v)
		}
		seen[v] = true
	}
	return nil
}

func groupDecisions(run *sim.Run, g []sim.ProcessID) []sim.Value {
	seen := make(map[sim.Value]bool)
	var out []sim.Value
	for _, p := range g {
		if v, ok := run.Final.Decision(p); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
