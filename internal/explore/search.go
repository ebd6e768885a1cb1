package explore

import (
	"fmt"

	"kset/internal/sim"
)

// Witness is an adversarial schedule found by the explorer, replayable as a
// recorded run.
type Witness struct {
	// Kind is "disagreement" or "blocking".
	Kind string
	// Run is the replayed run exhibiting the witness.
	Run *sim.Run
	// Detail describes the violation.
	Detail string
	// Stats reports exploration effort.
	Stats Stats
	// Checkpoint is the file a truncated bounded search saved its paused
	// state to (Options.Checkpoint); empty when no checkpoint was written.
	// A later search of the same instance resumes from it.
	Checkpoint string
}

// FindDisagreement searches for a reachable configuration in which two
// live processes have decided different values. A witness proves that the
// algorithm does not solve consensus in the explored (sub)system under the
// explored adversary. The boolean reports whether a witness was found; the
// Stats of the returned witness (also set on failure) report whether the
// search was exhaustive.
func (e *Explorer) FindDisagreement() (*Witness, bool, error) {
	return e.search(disagreementGoal, "disagreement")
}

// disagreementGoal is the disagreement-witness predicate of FindDisagreement.
func disagreementGoal(_ *searchCtx, cfg *sim.Configuration) (string, bool) {
	if !cfg.Disagreement() {
		return "", false
	}
	return fmt.Sprintf("decisions %v reached", cfg.DistinctDecisions()), true
}

// FindBlocking searches for a reachable quiescent configuration in which
// some live, non-crashed process is undecided: all buffers of live processes
// are empty and stepping any live process (with nothing to deliver) changes
// nothing, so no continuation can ever decide — a Termination violation.
func (e *Explorer) FindBlocking() (*Witness, bool, error) {
	return e.search(blockingGoal, "blocking")
}

// blockingGoal is the blocking-witness predicate of FindBlocking.
func blockingGoal(sc *searchCtx, cfg *sim.Configuration) (string, bool) {
	p, ok := sc.quiescentBlocked(cfg)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("process %d can never decide (quiescent configuration)", p), true
}

// FindConsensusFailure answers condition (C) on the explorer: it returns what
// FindDisagreement followed by FindBlocking returns, where the blocking
// search is skipped after a disagreement witness or a cancelled disagreement
// search, plus the disagreement search's Stats (equal to w.Stats when that
// search's result is returned). Callers that account for the effort of both
// searches, such as the Theorem 1 engine, add them up.
//
// A breadth-first search walks the reduced state space once: the blocking
// search would re-walk a prefix of the disagreement search's traversal, which
// does not depend on the goal, so the disagreement pass records where it
// would stop and answers it from the record — witness, Stats, the paused
// search left pending, and its OnProgress marks, replayed from the pass's own
// marks. Searches that may resume a paused search (Options.Checkpoint set, or
// a pause pending on the explorer) run the two searches, because each pauses
// into its own per-kind checkpoint, and so do depth-first searches, which
// mostly stop at a disagreement, where one pass would only add blocking-goal
// evaluations.
func (e *Explorer) FindConsensusFailure() (w *Witness, found bool, disagreement Stats, err error) {
	if e.opts.Strategy != "dfs" && e.opts.Checkpoint == "" && e.pending == nil {
		return e.consensusFailurePass()
	}
	w, found, err = e.FindDisagreement()
	if err != nil {
		return nil, false, Stats{}, err
	}
	disagreement = w.Stats
	if found || w.Stats.Cancelled {
		return w, found, disagreement, nil
	}
	w, found, err = e.FindBlocking()
	return w, found, disagreement, err
}

// goalFunc is a witness predicate evaluated on candidate configurations. It
// receives the evaluating goroutine's search context so predicates needing
// scratch state (quiescentBlocked's probe clone) stay allocation-free and
// contention-free under the parallel frontier search. Goals must be pure
// functions of the configuration's content: two configurations with equal
// keys must produce equal results.
type goalFunc func(sc *searchCtx, cfg *sim.Configuration) (string, bool)

// quiescentBlocked reports whether cfg is quiescent (no pending messages at
// live processes, and every live process's empty-delivery step is a no-op
// producing no sends) while some live process is undecided.
func (sc *searchCtx) quiescentBlocked(cfg *sim.Configuration) (sim.ProcessID, bool) {
	e := sc.e
	var undecided sim.ProcessID
	for _, p := range e.opts.Live {
		if cfg.Crashed(p) {
			continue
		}
		if cfg.BufferSize(p) > 0 {
			return 0, false
		}
		if _, ok := cfg.Decision(p); !ok && undecided == 0 {
			undecided = p
		}
	}
	if undecided == 0 {
		return 0, false
	}
	// Quiescence: stepping any live process without deliveries must neither
	// change its state nor send anything — equivalently, the step must leave
	// the configuration fingerprint unchanged (the fingerprint covers local
	// states, decisions, and buffered messages, and excludes time). (With a
	// detector the output could change behaviour; the oracle is part of the
	// step here.) Probing reuses one scratch clone across all live processes
	// and all visited candidates instead of deep-cloning per probe.
	for _, p := range e.opts.Live {
		if cfg.Crashed(p) {
			continue
		}
		sc.probe = cfg.CloneInto(sc.probe)
		// The probe is stepped but never keyed: only concrete fingerprints
		// are compared below, so skip the canonical maintenance a symmetric
		// search's clone would otherwise pay on every probe step.
		sc.probe.DetachSymmetry()
		req := sim.StepRequest{Proc: p}
		if e.opts.Oracle != nil {
			req.FD = e.opts.Oracle.Query(p, sc.probe.Time(), sc.probe)
		}
		if err := sc.probe.ApplyQuiet(req); err != nil {
			return 0, false
		}
		if sc.probe.Fingerprint() != cfg.Fingerprint() {
			return 0, false
		}
	}
	return undecided, true
}

// qent is one frontier entry of a search: a live configuration and the
// crash budget already spent reaching it.
type qent struct {
	cfg     *sim.Configuration
	crashes int32
}

// search runs a BFS or DFS (per Options.Strategy) from the initial
// configuration until goal holds. Breadth-first searches run on the
// level-synchronous kernel of bounded.go at every store and worker count;
// depth-first searches on its cons-list twin.
func (e *Explorer) search(goal goalFunc, kind string) (*Witness, bool, error) {
	if e.opts.Strategy == "dfs" {
		return e.searchBoundedDFS(goal, kind)
	}
	return e.searchBounded(goal, kind)
}

// replayActions re-executes an explicit action sequence from the initial
// configuration, producing a recorded run: the tail of every witness
// reconstruction.
func (e *Explorer) replayActions(acts []action) (*sim.Run, error) {
	// Always replay on the pointer engine: the Run and its Final
	// configuration escape to callers (state inspection, further Apply
	// calls, event trails), which is exactly the explain/debug surface the
	// packed engine trades away. Verdicts never depend on the engine, so
	// the replayed witness is the same run the packed search found.
	cfg, err := e.initialView()
	if err != nil {
		return nil, err
	}
	run := &sim.Run{Algorithm: e.alg.Name(), Inputs: append([]sim.Value(nil), e.inputs...), Final: cfg}
	// Record the initial silent crashes as events for failure-pattern
	// extraction. They were applied inside initial(); reconstruct them.
	liveSet := make(map[sim.ProcessID]bool, len(e.opts.Live))
	for _, p := range e.opts.Live {
		liveSet[p] = true
	}
	for _, p := range cfg.ProcessIDs() {
		if !liveSet[p] {
			run.Events = append(run.Events, sim.Event{Proc: p, StateKey: cfg.State(p).Key(), Crashed: true, Silent: true})
		}
	}
	for _, act := range acts {
		req := sim.StepRequest{Proc: act.Proc, Crash: act.Crash}
		if act.Crash && act.Omit {
			req.OmitTo = e.omitAll
		}
		faultRequest(&req, act.Fault)
		switch act.Mode {
		case DeliverOldest:
			id, ok := cfg.OldestMessageID(act.Proc)
			if !ok {
				return nil, fmt.Errorf("explore: replay divergence: empty buffer for oldest delivery at %d", act.Proc)
			}
			req.Deliver = []int64{id}
		case DeliverAll:
			req.Deliver = cfg.DeliverAll(act.Proc)
		}
		if e.opts.Oracle != nil {
			req.FD = e.opts.Oracle.Query(act.Proc, cfg.Time(), cfg)
		}
		ev, err := cfg.Apply(req)
		if err != nil {
			return nil, fmt.Errorf("explore: replay failed: %w", err)
		}
		run.Events = append(run.Events, ev)
	}
	var blocked []sim.ProcessID
	for _, p := range cfg.ProcessIDs() {
		if _, decided := cfg.Decision(p); !decided && !cfg.Crashed(p) {
			blocked = append(blocked, p)
		}
	}
	run.Blocked = blocked
	return run, nil
}

// Valence classifies the decision values reachable from the initial
// configuration: the set of values v such that some reachable configuration
// contains a process decided on v. A configuration with two or more
// reachable values is bivalent in the FLP sense. The search stops early
// once `stopAt` distinct values are found (0 = collect every value).
func (e *Explorer) Valence(stopAt int) ([]sim.Value, Stats, error) {
	start, err := e.initial()
	if err != nil {
		return nil, Stats{}, err
	}
	// valenceFrom returns the values already sorted.
	return e.valenceFrom(start, 0, stopAt)
}

// collectDecisions folds cfg's decided values into seen without allocating.
func collectDecisions(seen map[sim.Value]bool, cfg *sim.Configuration) {
	for p := 1; p <= cfg.N(); p++ {
		if v, ok := cfg.Decision(sim.ProcessID(p)); ok {
			seen[v] = true
		}
	}
}
