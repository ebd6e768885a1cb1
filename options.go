package kset

// This file is the search API of the facade: a first-class Options value
// plus an immutable Searcher built from it, threaded with context.Context
// cancellation down into internal/explore. Every search is configured
// through a Searcher, so concurrent searches with different knobs — which a
// long-running job server (cmd/ksetd) runs — never share mutable state.

import (
	"context"

	"kset/internal/core"
	"kset/internal/explore"
	"kset/internal/sim"
)

// Options bundles the facade's search knobs in CLI spelling. The zero value
// is the default configuration (GOMAXPROCS workers, no reductions,
// in-memory store, no checkpointing, crash-only faults) and is always
// valid. There is no engine knob: searches run on the packed
// struct-of-arrays configuration engine wherever the algorithm has a
// packer and on the pointer engine elsewhere, with bit-identical results
// (see README, Packed engine).
type Options struct {
	// Workers caps the goroutines expanding the frontier of each
	// breadth-first condition-(C) search (0 = GOMAXPROCS, 1 = the serial
	// loop). Results — visited set, witness, stats — are bit-identical at
	// every worker count, so it is purely a performance control.
	Workers int
	// Symmetry enables orbit-canonical revisit detection: configurations
	// that are process-renamings of each other, under permutations
	// preserving the proposal assignment and the live set, are explored
	// once, while every reported witness stays a concrete, replayable run.
	// Pairwise distinct proposals (the Theorem 1 requirement) leave nothing
	// to collapse; uniform- and block-input searches shrink substantially.
	// A sound no-op for algorithms that are not renaming-equivariant, such
	// as FLPKSet (see explore.Options.Symmetry).
	Symmetry bool
	// POR enables commutativity-based partial-order reduction: once every
	// live process has finished sending (sim.SendQuiescent), each expansion
	// keeps one delivering process instead of all interleavings, and
	// revisit detection collapses inert crashed-slot content. Verdicts and
	// witnesses' replayability are those of the unreduced search; only the
	// visited count shrinks. It composes with Symmetry and stands down
	// under oracles and non-crash fault models (see explore.Options.POR).
	POR bool
	// Store selects the memory regime: "" or "inmem" (8-byte level records
	// in memory), "frontier" (the compact visited-key set plus two BFS
	// levels; witnesses reconstruct by bounded re-search), or "spill" (the
	// level records stream to a temporary file). Results are bit-identical
	// across stores (see explore.Options.Store and README, Memory &
	// checkpoints).
	Store string
	// Checkpoint names the directory truncated breadth-first searches pause
	// into, empty for none: a later identical search resumes where the
	// paused one stopped (see explore.Options.Checkpoint).
	Checkpoint string
	// Faults selects the condition-(C) fault adversary in
	// explore.ParseFaults spelling: "" or "crash", or
	// "model[:budget[:maxfaulty]]" with model send-omission,
	// receive-omission, or byzantine. Witnesses remain concrete replayable
	// runs whose fault steps re-execute exactly.
	Faults string
}

// Validate reports whether the options' string spellings parse.
func (o Options) Validate() error {
	if _, err := explore.ParseStore(o.Store); err != nil {
		return err
	}
	if _, err := explore.ParseFaults(o.Faults); err != nil {
		return err
	}
	return nil
}

// Searcher is an immutable, goroutine-safe handle on a validated Options
// value: every condition-(C) search it spawns uses exactly these knobs, so
// concurrent searches with different configurations are isolated.
// Construct with NewSearcher.
type Searcher struct {
	opts   Options
	store  explore.Store
	faults explore.FaultAdversary
}

// NewSearcher validates o and returns a Searcher bound to it.
func NewSearcher(o Options) (*Searcher, error) {
	store, err := explore.ParseStore(o.Store)
	if err != nil {
		return nil, err
	}
	faults, err := explore.ParseFaults(o.Faults)
	if err != nil {
		return nil, err
	}
	return &Searcher{opts: o, store: store, faults: faults}, nil
}

// Options returns the validated options the Searcher was built from.
func (s *Searcher) Options() Options { return s.opts }

// orDefault resolves a possibly-nil Searcher to the zero-options default:
// the convention of the experiment parameter structs, whose zero value
// means "default knobs".
func orDefault(s *Searcher) *Searcher {
	if s != nil {
		return s
	}
	return &Searcher{} // the zero Options are always valid
}

// instance stamps the Searcher's knobs and the context over inst: the
// single point mapping the facade's search configuration onto the engine's
// Instance fields, shared by CheckImpossibility and InstanceDigest so a
// verdict's content address always reflects the search that produced it.
// Per-instance fields that are not search knobs (strategy, budgets, oracles,
// progress callback) pass through untouched.
func (s *Searcher) instance(ctx context.Context, inst ImpossibilityInstance) ImpossibilityInstance {
	inst.SearchWorkers = s.opts.Workers
	inst.Symmetry = s.opts.Symmetry
	inst.POR = s.opts.POR
	inst.SearchStore = s.opts.Store
	inst.Checkpoint = s.opts.Checkpoint
	inst.Faults = s.opts.Faults
	inst.Ctx = ctx
	return inst
}

// CheckImpossibility runs the Theorem 1 pipeline with this Searcher's
// knobs stamped over the instance's search fields and ctx threaded into the
// condition-(C) exploration. Cancellation is cooperative: a cancelled
// search stops at its next poll point and the report comes back
// inconclusive with Report.CondCStats.Cancelled set (with a Checkpoint
// configured, the paused state is persisted for a later resume); no error
// is returned for cancellation.
func (s *Searcher) CheckImpossibility(ctx context.Context, inst ImpossibilityInstance) (*ImpossibilityReport, error) {
	return core.CheckImpossibility(s.instance(ctx, inst))
}

// InstanceDigest returns the content address of the instance's verdict
// under this Searcher's knobs: the cache key of the verdict store in
// internal/service. Two instances share a digest exactly when
// CheckImpossibility is guaranteed to produce bit-identical verdicts for
// them — Workers and Store are excluded, reductions, faults, budgets, and
// strategy are included. See core.InstanceDigest.
func (s *Searcher) InstanceDigest(inst ImpossibilityInstance) (uint64, error) {
	return core.InstanceDigest(s.instance(context.Background(), inst))
}

// SearchRequest parameterizes Searcher.FindConsensusFailure: the standalone
// condition-(C) search over an explicit live set.
type SearchRequest struct {
	// Alg is the algorithm under test; the search restricts it to Live.
	Alg Algorithm
	// Inputs is the full-system proposal vector (one value per process).
	Inputs []Value
	// Live is the subsystem searched; processes outside it crash initially.
	Live []ProcessID
	// CrashBudget bounds the adversary's crashes inside the subsystem.
	CrashBudget int
	// MaxConfigs bounds the exploration (0 = explore package default).
	MaxConfigs int
	// OnProgress, when non-nil, receives periodic (visited, level) progress
	// from the search; level is -1 from engines that do not track depth.
	OnProgress func(visited, level int)
	// OnSnapshotError, when non-nil, is notified once if the search's
	// best-effort level-boundary checkpoint snapshots start failing: the
	// verdict is unaffected but crash durability degraded (see
	// explore.Options.OnSnapshotError). Only meaningful with a Checkpoint
	// configured on the Searcher.
	OnSnapshotError func(error)
}

// exploreOptions maps the Searcher's knobs and ctx onto explore.Options: the
// one root site that lists them. explorer adds a request's fields to them,
// and the experiments that build their own explorers (E6, E13) start from
// them too, so every knob reaches every search.
func (s *Searcher) exploreOptions(ctx context.Context) explore.Options {
	return explore.Options{
		Workers:    s.opts.Workers,
		Symmetry:   s.opts.Symmetry,
		POR:        s.opts.POR,
		Faults:     s.faults,
		Store:      s.store,
		Checkpoint: s.opts.Checkpoint,
		Context:    ctx,
	}
}

// explorer builds the condition-(C) explorer FindConsensusFailure and
// SearchDigest share, so the digest always addresses exactly the search
// that would run.
func (s *Searcher) explorer(ctx context.Context, req SearchRequest) *explore.Explorer {
	opts := s.exploreOptions(ctx)
	opts.Live = req.Live
	opts.MaxCrashes = req.CrashBudget
	opts.MaxConfigs = req.MaxConfigs
	opts.OnProgress = req.OnProgress
	opts.OnSnapshotError = req.OnSnapshotError
	return explore.New(sim.Restrict(req.Alg, req.Live), req.Inputs, opts)
}

// FindConsensusFailure searches the subsystem of live processes for a
// disagreement or blocking witness of the algorithm under adversarial
// scheduling — the condition (C) helper on the Searcher, cancellable via
// ctx. A cancelled search returns the usual (witness, false, nil) shape
// with witness.Stats.Cancelled set.
func (s *Searcher) FindConsensusFailure(ctx context.Context, req SearchRequest) (*explore.Witness, bool, error) {
	return consensusFailure(s.explorer(ctx, req))
}

// consensusFailure runs explore.Explorer.FindConsensusFailure on ex, for the
// plain and the sharded search alike: the disagreement search, then the
// blocking search unless a witness was found or the disagreement search was
// cancelled (a blocking search started after a cancellation would stop at
// its first poll and report nothing visited), returning the last search's
// result. Breadth-first searches answer both in one pass over the state
// space; OnProgress still reports both searches' levels.
func consensusFailure(ex *explore.Explorer) (*explore.Witness, bool, error) {
	w, found, _, err := ex.FindConsensusFailure()
	return w, found, err
}

// SearchDigest returns the content address of FindConsensusFailure's
// verdict for req under this Searcher's knobs: a fingerprint of the
// algorithm, inputs, live set, crash budget, reductions, fault model, and
// MaxConfigs. Workers and Store are excluded — results are bit-identical
// across them (the verdict-cache invariant shared with InstanceDigest).
func (s *Searcher) SearchDigest(req SearchRequest) uint64 {
	ex := s.explorer(context.Background(), req)
	h := sim.HashSeed()
	h = sim.HashUint(h, ex.Digest("disagreement"))
	h = sim.HashUint(h, ex.Digest("blocking"))
	h = sim.HashUint(h, uint64(req.MaxConfigs))
	return sim.HashMix(h)
}
