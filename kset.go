// Package kset is a reproduction, as an executable Go library, of
//
//	Biely, Robinson, Schmid: "Easy Impossibility Proofs for k-Set
//	Agreement in Message Passing Systems" (OPODIS 2011).
//
// The library contains a deterministic message-passing simulator following
// the paper's Section II computing model, the failure-detector framework of
// Sections II-C and VII (Sigma_k, Omega_k, and the partition detector of
// Definition 7), the agreement protocols the paper builds on (the
// generalized FLP initial-crash protocol of Section VI, the classic
// f-resilient min-wait protocol, ballot consensus from (Sigma, Omega)), and
// — as the primary contribution — an executable version of Theorem 1: a
// reduction engine that mechanically constructs the partitioned and pasted
// runs of the paper's impossibility proofs and verifies conditions (A)-(D)
// on concrete algorithms.
//
// This root package is the public API: it re-exports the simulator
// vocabulary, provides convenience constructors and run helpers, and hosts
// the experiment runners (E1-E12) that regenerate every theorem-level
// result of the paper; see EXPERIMENTS.md for the index.
package kset

import (
	"context"
	"fmt"

	"kset/internal/algorithms"
	"kset/internal/core"
	"kset/internal/explore"
	"kset/internal/fd"
	"kset/internal/sched"
	"kset/internal/sim"
)

// Core vocabulary, re-exported from the simulation kernel.
type (
	// Value is a proposal or decision value.
	Value = sim.Value
	// ProcessID identifies a process (1..n).
	ProcessID = sim.ProcessID
	// Algorithm is a deterministic process state machine factory.
	Algorithm = sim.Algorithm
	// State is an immutable process state.
	State = sim.State
	// Run is a recorded finite run prefix.
	Run = sim.Run
	// Message is a message in transit.
	Message = sim.Message
	// Configuration is a global system configuration.
	Configuration = sim.Configuration
)

// NoValue is the undecided output.
const NoValue = sim.NoValue

// Re-exported engine types.
type (
	// PartitionSpec fixes the Theorem 1 sets D_1..D_{k-1} and D-bar.
	PartitionSpec = core.PartitionSpec
	// ImpossibilityReport is the Theorem 1 pipeline outcome.
	ImpossibilityReport = core.Report
	// ImpossibilityInstance parameterizes the Theorem 1 pipeline.
	ImpossibilityInstance = core.Instance
)

// NewMinWait returns the classic f-resilient protocol: broadcast, wait for
// n-f values, decide the minimum (solves k-set agreement for f < k).
func NewMinWait(f int) Algorithm { return algorithms.MinWait{F: f} }

// NewFLPKSet returns the generalized FLP initial-crash protocol of Section
// VI with L = n-f (solves k-set agreement for kn > (k+1)f, Theorem 8).
func NewFLPKSet(f int) Algorithm { return algorithms.FLPKSet{F: f} }

// NewSigmaOmega returns ballot-based consensus from (Sigma, Omega) — the
// k = 1 endpoint of Corollary 13.
func NewSigmaOmega() Algorithm { return algorithms.SigmaOmega{} }

// NewQuorumMin returns the flawed Sigma_k-based candidate used by the
// vetting experiments.
func NewQuorumMin() Algorithm { return algorithms.QuorumMin{} }

// NewDecideOwn returns the trivially flawed candidate that decides its own
// proposal immediately.
func NewDecideOwn() Algorithm { return algorithms.DecideOwn{} }

// NewFirstHeard returns the flawed fast candidate that decides on first
// reception.
func NewFirstHeard() Algorithm { return algorithms.FirstHeard{} }

// NewRoundFlood returns the classic synchronous FloodSet consensus (decide
// after F+1 lock-step rounds). It is correct under synchronous processes
// with prompt reliable delivery and refuted by the Theorem 1 engine under
// asynchronous communication — Theorem 2's hypothesis made concrete.
func NewRoundFlood(f int) Algorithm { return algorithms.RoundFlood{F: f} }

// NewSingletonQuorum returns the Sigma_{n-1}-based (n-1)-set agreement
// protocol (the k = n-1 endpoint of Corollary 13): unconditional safety by
// quorum intersection, with the liveness condition documented on the type.
func NewSingletonQuorum() Algorithm { return algorithms.SingletonQuorum{} }

// NewAlgorithm maps a CLI/API algorithm name to its constructor: "minwait",
// "flpkset", "sigmaomega", "quorummin", "decideown", "firstheard",
// "roundflood", or "singletonquorum". f parameterizes the resilience-bound
// algorithms and is ignored by the rest. The shared registry of
// cmd/impossibility and the ksetd job server, so the two spell instances
// identically.
func NewAlgorithm(name string, f int) (Algorithm, error) {
	switch name {
	case "minwait":
		return NewMinWait(f), nil
	case "flpkset":
		return NewFLPKSet(f), nil
	case "sigmaomega":
		return NewSigmaOmega(), nil
	case "quorummin":
		return NewQuorumMin(), nil
	case "decideown":
		return NewDecideOwn(), nil
	case "firstheard":
		return NewFirstHeard(), nil
	case "roundflood":
		return NewRoundFlood(f), nil
	case "singletonquorum":
		return NewSingletonQuorum(), nil
	default:
		return nil, fmt.Errorf("kset: unknown algorithm %q", name)
	}
}

// DistinctInputs returns n pairwise distinct proposal values (Theorem 1
// requires runs in which every process proposes a distinct value; |V| > n).
func DistinctInputs(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = Value(100 + i)
	}
	return out
}

// Theorem2Partition builds the partition of Theorem 2's proof (Lemma 3).
func Theorem2Partition(n, f, k int) (PartitionSpec, error) {
	return core.Theorem2Partition(n, f, k)
}

// Theorem10Partition builds the partition of Theorem 10's proof.
func Theorem10Partition(n, k int) (PartitionSpec, error) {
	return core.Theorem10Partition(n, k)
}

// NewPartitionSpec builds an explicit partition: k-1 disjoint decider
// groups, with the remaining processes forming D-bar.
func NewPartitionSpec(n, k int, groups [][]ProcessID) (PartitionSpec, error) {
	return core.NewPartitionSpec(n, k, groups)
}

// CheckImpossibility runs the Theorem 1 pipeline.
func CheckImpossibility(inst ImpossibilityInstance) (*ImpossibilityReport, error) {
	return core.CheckImpossibility(inst)
}

// SimOptions configures Simulate.
type SimOptions struct {
	// InitialDead processes never take a step (initial crashes).
	InitialDead []ProcessID
	// CrashAtTime schedules mid-run crashes (global time).
	CrashAtTime map[ProcessID]int
	// Partition, when nonempty, delays all cross-group messages until every
	// process has decided or crashed.
	Partition [][]ProcessID
	// Detector selects a failure-detector oracle; nil for none.
	Detector DetectorSpec
	// MaxSteps bounds the run (0 = default).
	MaxSteps int
}

// DetectorSpec selects and parameterizes a failure-detector oracle for
// Simulate. The zero value means "no detector".
type DetectorSpec struct {
	// Kind is "", "sigma-omega", or "partition" (the Definition 7 detector
	// over SimOptions.Partition).
	Kind string
	// K is the detector index k (Sigma_k, Omega_k).
	K int
	// GST is Omega's stabilization time.
	GST int
}

// Simulate runs the algorithm under a fair MASYNC scheduler with the given
// failure and partition setup and returns the recorded run.
func Simulate(alg Algorithm, inputs []Value, opts SimOptions) (*Run, error) {
	n := len(inputs)
	cp := sched.CrashPlan{
		InitialDead: opts.InitialDead,
		CrashAtTime: opts.CrashAtTime,
	}
	pattern := fd.NewPattern(n).WithInitiallyDead(opts.InitialDead...)
	for p, t := range opts.CrashAtTime {
		pattern = pattern.WithCrash(p, t)
	}

	var oracle sched.Oracle
	switch opts.Detector.Kind {
	case "":
	case "sigma-omega":
		k := opts.Detector.K
		if k <= 0 {
			k = 1
		}
		oracle = fd.CombinedOracle{
			Sigma: fd.SigmaOracle{K: k, Pattern: pattern},
			Omega: fd.OmegaOracle{K: k, Pattern: pattern, GST: opts.Detector.GST},
		}
	case "partition":
		if len(opts.Partition) == 0 {
			return nil, fmt.Errorf("kset: partition detector requires SimOptions.Partition")
		}
		k := opts.Detector.K
		if k <= 0 {
			k = len(opts.Partition)
		}
		oracle = fd.PartitionCombinedOracle{
			Sigma: fd.NewPartitionSigmaOracle(opts.Partition, pattern),
			Omega: fd.OmegaOracle{K: k, Pattern: pattern, GST: opts.Detector.GST},
		}
	default:
		return nil, fmt.Errorf("kset: unknown detector kind %q", opts.Detector.Kind)
	}

	var gate sched.Gate
	if len(opts.Partition) > 0 {
		gate = sched.PartitionUntilDecidedGate(opts.Partition, fd.AllProcesses(n))
	}
	// Construction-time plan validation: out-of-range or duplicate process
	// ids surface here as typed sched.PlanErrors instead of as downstream
	// scheduler misbehaviour (f = -1: Simulate imposes no resilience bound).
	if err := cp.Validate(n, -1); err != nil {
		return nil, fmt.Errorf("kset: %w", err)
	}
	s := &sched.Fair{
		Crash:  cp,
		Gate:   gate,
		Oracle: oracle,
		Stop:   sched.AllCorrectDecided(cp),
	}
	return sim.Execute(alg, inputs, s, sim.Options{MaxSteps: opts.MaxSteps})
}

// SearchWorkers caps the number of goroutines expanding the frontier of
// each condition-(C) state-space search (FindConsensusFailure, the E6
// valence analyses, and any engine instance configured for breadth-first
// search). Zero, the default, means GOMAXPROCS; 1 forces the serial loop.
// Whatever the worker count, parallel searches return bit-identical
// results to the serial ones — same visited set,
// same witness, same stats — so the knob is purely a performance control.
// It composes with SweepWorkers: sweeps parallelize across independent
// experiment cells, SearchWorkers parallelizes inside one search.
//
// Deprecated: package globals cannot configure concurrent searches safely.
// Construct an Options value and a Searcher instead (see options.go); the
// global remains as the seed of DefaultSearcher.
var SearchWorkers = 0

// SearchSymmetry enables orbit-canonical revisit detection in every
// condition-(C) state-space search the facade spawns (FindConsensusFailure
// and the E6 valence analyses): configurations that are process-renamings
// of each other — under permutations preserving the proposal assignment and
// the live set — are explored once, which shrinks the visited space by up
// to the stabilizer's size on instances with repeated proposals while
// keeping every reported witness a concrete, replayable run. Proposals that
// are pairwise distinct (the Theorem 1 requirement) leave nothing to
// collapse, so the engine experiments are unaffected; uniform- and
// block-input searches speed up substantially. Default off. A performance
// control for the equivariant algorithms (MinWait, QuorumMin, FirstHeard,
// DecideOwn) and a sound no-op for the rest — notably FLPKSet, whose
// minimum-id decide rule is not renaming-equivariant and which therefore
// stays on concrete hashes (see explore.Options.Symmetry for the soundness
// discussion).
//
// Deprecated: use Options.Symmetry with a Searcher; the global remains as
// the seed of DefaultSearcher.
var SearchSymmetry = false

// SearchPOR enables commutativity-based partial-order reduction in every
// condition-(C) state-space search the facade spawns (FindConsensusFailure
// and the E6 valence analyses): once every live process's state proves —
// through the opt-in sim.SendQuiescent interface — that its sending phase
// is over, steps of distinct processes touch disjoint state and commute, so
// each expansion keeps only one delivering process instead of all
// interleavings — crashes against the remaining budget and pending
// decision steps are deferred by commutation, never lost — and revisit
// detection collapses behaviourally inert crashed-slot content
// (sim.Configuration.LiveFingerprint). Verdicts, witnesses' replayability,
// and the valence tables are exactly those of the unreduced search; only
// the visited-node count
// shrinks. The reduction composes multiplicatively with SearchSymmetry —
// the two cut orthogonal axes of redundancy — and is a full, sound no-op
// for oracle-backed searches (E5's detector sweeps); for algorithms
// without sim.SendQuiescent only the inert-crashed-slot collapsing
// remains active, which is sound for any algorithm. Default off. See
// explore.Options.POR for the soundness argument.
//
// Deprecated: use Options.POR with a Searcher; the global remains as the
// seed of DefaultSearcher.
var SearchPOR = false

// SearchStore selects the memory regime of every condition-(C) state-space
// search the facade spawns: "" or "inmem" keeps each BFS level's
// generation records in memory (8 bytes per state, witnesses read straight
// off them); "frontier" retains only the compact ~16 bytes-per-state
// fingerprint visited set plus the current and next BFS levels,
// reconstructing witnesses by a bounded deterministic re-search; "spill"
// streams the generation records to a temporary disk file instead, so
// witnesses and checkpoints never re-search. Verdicts, stats, and witnesses
// are bit-identical across the three stores at every worker count — the
// knob trades peak memory against witness-reconstruction time, nothing
// else. The frontier-only and spill stores are what let exhaustive
// verification runs (E13's uniform Theorem 2 instances) complete under a
// gigabyte-scale GOMEMLIMIT. See explore.Options.Store and README "Memory &
// checkpoints".
//
// Deprecated: use Options.Store with a Searcher; the global remains as the
// seed of DefaultSearcher.
var SearchStore = ""

// SearchCheckpoint, when non-empty, names a directory in which truncated
// breadth-first searches persist their paused state: a search that
// stops at its MaxConfigs budget writes a small self-keyed checkpoint file
// (the level-generation log, 8 bytes per visited state — the frontier and
// visited set regenerate from it) and a later identical search resumes
// where it stopped instead of starting over, so truncation becomes "pause",
// not "lose everything". Checkpoints are keyed by a digest of the search
// instance, so many experiments can share one directory. See
// explore.Options.Checkpoint.
//
// Deprecated: use Options.Checkpoint with a Searcher; the global remains
// as the seed of DefaultSearcher.
var SearchCheckpoint = ""

// SearchFaults selects the fault model of every condition-(C) state-space
// search the facade spawns, in explore.ParseFaults form: "" or "crash" keeps
// the crash-only adversary (bit-identical to the engine before the fault
// layer existed — the differential tests pin this); "send-omission",
// "receive-omission", or "byzantine", optionally suffixed ":budget" (fault
// events per process, default 1) and ":maxfaulty" (distinct faulty
// processes, default unbounded), arms the corresponding budgeted fault
// branching in the adversary. Witnesses remain concrete replayable runs
// whose fault steps re-execute exactly. Symmetry reduction extends soundly
// to fault searches (spent budgets fold into the orbit signatures); POR
// stands down as a sound no-op under a non-crash model, exactly as it does
// under oracles. Default "".
//
// Deprecated: use Options.Faults with a Searcher; the global remains as
// the seed of DefaultSearcher.
var SearchFaults = ""

// SearchConfig bundles the facade's search knobs in CLI spelling, one field
// per Search* global. Commands parse their flags into a SearchConfig and
// mirror it with ApplySearchConfig: a single shared mapping instead of
// per-command assignment lists, so a knob added here cannot be wired into
// one command's search path and silently dropped from another's (the
// -symmetry/-por theorem10-path drift this replaced).
//
// Deprecated: construct an Options value (the same fields) and a Searcher
// with NewSearcher instead of mirroring knobs into the globals.
type SearchConfig struct {
	// Workers mirrors SearchWorkers.
	Workers int
	// Symmetry mirrors SearchSymmetry.
	Symmetry bool
	// POR mirrors SearchPOR.
	POR bool
	// Store mirrors SearchStore ("", "inmem", "frontier", "spill").
	Store string
	// Checkpoint mirrors SearchCheckpoint.
	Checkpoint string
	// Faults mirrors SearchFaults (explore.ParseFaults spelling).
	Faults string
}

// ApplySearchConfig validates cfg and mirrors it into the facade's Search*
// globals, returning an error — and leaving the globals untouched — when a
// spelling does not parse.
//
// Deprecated: use NewSearcher(Options{...}) and pass the Searcher to the
// search entry points; mutating the globals cannot configure concurrent
// searches safely. The shim remains so global-configured tests and
// examples keep passing.
func ApplySearchConfig(cfg SearchConfig) error {
	if _, err := explore.ParseStore(cfg.Store); err != nil {
		return err
	}
	if _, err := explore.ParseFaults(cfg.Faults); err != nil {
		return err
	}
	SearchWorkers = cfg.Workers
	SearchSymmetry = cfg.Symmetry
	SearchPOR = cfg.POR
	SearchStore = cfg.Store
	SearchCheckpoint = cfg.Checkpoint
	SearchFaults = cfg.Faults
	return nil
}

// FindConsensusFailure searches the subsystem of live processes for a
// disagreement or blocking witness of the algorithm under adversarial
// scheduling with the given crash budget — the condition (C) helper exposed
// on its own for examples and CLI use. It reads the deprecated Search*
// globals via DefaultSearcher; new code should call
// Searcher.FindConsensusFailure, which adds context cancellation and
// progress reporting.
func FindConsensusFailure(alg Algorithm, inputs []Value, live []ProcessID, crashBudget, maxConfigs int) (*explore.Witness, bool, error) {
	return DefaultSearcher().FindConsensusFailure(context.Background(), SearchRequest{
		Alg:         alg,
		Inputs:      inputs,
		Live:        live,
		CrashBudget: crashBudget,
		MaxConfigs:  maxConfigs,
	})
}
