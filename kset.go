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
// the experiment runners (E1-E15) that regenerate every theorem-level
// result of the paper; see EXPERIMENTS.md for the index.
package kset

import (
	"fmt"

	"kset/internal/algorithms"
	"kset/internal/core"
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
