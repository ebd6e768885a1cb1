package explore

import (
	"fmt"
	"sort"

	"kset/internal/sim"
)

// StepValence describes one adversary action available at a configuration
// together with the valence of the configuration it leads to.
type StepValence struct {
	Proc  sim.ProcessID
	Mode  DeliveryMode
	Crash bool
	// Values are the decision values reachable after taking the action.
	Values []sim.Value
	// Forcing is true when the successor configuration is univalent while
	// the current configuration is bivalent — the action is a "critical
	// step" in the FLP sense: the adversary's choice at this configuration
	// decides the outcome.
	Forcing bool
}

// CriticalAnalysis classifies every available action at the initial
// configuration by the valence of its successor. For a bivalent initial
// configuration of a consensus algorithm this exhibits the FLP Lemma 3
// shape: some single steps commit the system to one value, so the
// adversary, by choosing among them, controls the decision — and by
// stalling the pivotal process it can defer commitment.
type CriticalAnalysis struct {
	// InitialValues is the valence of the initial configuration itself.
	InitialValues []sim.Value
	// Bivalent reports len(InitialValues) >= 2.
	Bivalent bool
	// Steps lists every applicable first action with its successor valence.
	Steps []StepValence
	// Stats aggregates the exploration effort across all successor
	// valence computations.
	Stats Stats
}

// AnalyzeCriticalSteps computes the valence of the initial configuration
// and of every one-step successor. Exploration budgets apply per successor;
// a truncated successor valence is reported as-is with Stats.Truncated set
// on the aggregate. A cancelled Options.Context stops the analysis at the
// first cancelled valence: it reports the steps finished before it, with
// Stats.Cancelled and Stats.Truncated set.
func (e *Explorer) AnalyzeCriticalSteps() (*CriticalAnalysis, error) {
	initVals, initStats, err := e.Valence(0)
	if err != nil {
		return nil, fmt.Errorf("explore: initial valence: %w", err)
	}
	out := &CriticalAnalysis{
		InitialValues: initVals,
		Bivalent:      len(initVals) >= 2,
		Stats:         initStats,
	}
	if initStats.Cancelled {
		return out, nil
	}

	start, err := e.initial()
	if err != nil {
		return nil, err
	}
	// actionsFull returns the explorer's reusable buffer and valenceFrom
	// enumerates actions itself below, so take a copy before recursing; each
	// successor is handed to valenceFrom, which owns it from then on. The
	// unreduced enumeration is deliberate: the analysis reports a StepValence
	// per available first action, and that list must not shrink under
	// Options.POR (the successor valence computations still prune).
	acts := append([]action(nil), e.sc.actionsFull(start, 0)...)
	for _, act := range acts {
		if !e.sc.plan(start, act) {
			continue
		}
		vals, stats, err := e.valenceFrom(e.sc.commit(), boolToInt(act.Crash), 0)
		if err != nil {
			return nil, fmt.Errorf("explore: successor valence: %w", err)
		}
		out.Stats.Visited += stats.Visited
		if stats.Truncated {
			out.Stats.Truncated = true
		}
		if stats.Cancelled {
			out.Stats.Cancelled = true
			return out, nil
		}
		out.Steps = append(out.Steps, StepValence{
			Proc:    act.Proc,
			Mode:    act.Mode,
			Crash:   act.Crash,
			Values:  vals,
			Forcing: out.Bivalent && len(vals) == 1,
		})
	}
	return out, nil
}

// valenceFrom computes the reachable decision values from an arbitrary
// configuration (with crashes already spent), stopping early once stopAt
// distinct values are found (0 = collect every value). It runs on the
// breadth-first kernel with a census in place of a witness goal, a
// discarding level sink and no checkpoints or progress reports; the kernel
// owns start from here on and recycles it with every other visited
// configuration.
func (e *Explorer) valenceFrom(start *sim.Configuration, crashesSpent, stopAt int) ([]sim.Value, Stats, error) {
	if e.shard != nil {
		return nil, Stats{}, fmt.Errorf("explore: valence censuses are not sharded")
	}
	c := &census{seen: map[sim.Value]bool{}, stopAt: stopAt}
	collectDecisions(c.seen, start)
	st := e.rootState(start, crashesSpent, &discardSink{})
	st.census = c
	st.quiet = true
	if _, err := e.runBounded(st, c.goal); err != nil {
		return nil, Stats{}, err
	}
	vals := make([]sim.Value, 0, len(c.seen))
	for v := range c.seen {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals, st.stats, nil
}

// census is the decision-value collector of a valence search: the kernel
// folds every configuration it seals into seen, in sequential order, and
// stops before the next parent once seen holds stopAt values (0 = never).
type census struct {
	seen   map[sim.Value]bool
	stopAt int
}

// full reports whether the census stops the search; false for a nil census
// (a witness search).
func (c *census) full() bool {
	return c != nil && c.stopAt > 0 && len(c.seen) >= c.stopAt
}

// goal folds cfg's decisions into the census and never reports a hit. The
// sequential kernel evaluates goals in sealing order; the parallel merge
// folds winners itself, since workers evaluate goals speculatively.
func (c *census) goal(_ *searchCtx, cfg *sim.Configuration) (string, bool) {
	collectDecisions(c.seen, cfg)
	return "", false
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
