package kset

// This file is the globals-free search API of the facade: a first-class
// Options value plus an immutable Searcher built from it, threaded with
// context.Context cancellation down into internal/explore. It replaces the
// mutable Search* package globals of kset.go for all new code — concurrent
// searches configured through globals are a data race by construction,
// which is exactly what a long-running job server (cmd/ksetd) cannot have.
// The globals remain as deprecated shims feeding DefaultSearcher, so
// existing callers and tests keep their behaviour bit for bit.

import (
	"context"

	"kset/internal/core"
	"kset/internal/explore"
	"kset/internal/sim"
)

// Options bundles the facade's search knobs in CLI spelling — one immutable
// value instead of the six deprecated Search* globals. The zero value is
// the default configuration (GOMAXPROCS workers, no reductions, in-memory
// store, no checkpointing, crash-only faults) and is always valid.
type Options struct {
	// Workers caps the goroutines expanding the frontier of each
	// breadth-first condition-(C) search (0 = GOMAXPROCS, 1 = the serial
	// loop). Results are bit-identical at every worker count; see the
	// SearchWorkers global for the full discussion.
	Workers int
	// Symmetry enables orbit-canonical revisit detection (SearchSymmetry).
	Symmetry bool
	// POR enables commutativity-based partial-order reduction (SearchPOR).
	POR bool
	// Store selects the memory regime: "" or "inmem", "frontier", or
	// "spill" (SearchStore).
	Store string
	// Checkpoint names the directory truncated breadth-first searches pause
	// into, empty for none (SearchCheckpoint).
	Checkpoint string
	// Faults selects the condition-(C) fault adversary in
	// explore.ParseFaults spelling: "" or "crash", or
	// "model[:budget[:maxfaulty]]" (SearchFaults).
	Faults string
	// Packed selects the configuration engine of the condition-(C)
	// searches: "" or "off" for the pointer engine, "on" (or "auto") for
	// the packed struct-of-arrays engine, which clones configurations with
	// flat memcpys instead of per-process allocations and falls back
	// silently where an algorithm/system pair has no packed encoding (see
	// explore.Options.Packed). Like Workers and Store it never changes a
	// verdict, witness, or visited set, and it is excluded from digests —
	// cached verdicts and checkpoints interoperate across both engines.
	// There is no corresponding legacy global: the knob postdates the
	// migration to Options.
	Packed string
}

// Validate reports whether the options' string spellings parse. It is the
// value-type replacement for ApplySearchConfig's validation half.
func (o Options) Validate() error {
	if _, err := explore.ParseStore(o.Store); err != nil {
		return err
	}
	if _, err := explore.ParseFaults(o.Faults); err != nil {
		return err
	}
	if _, err := explore.ParsePacked(o.Packed); err != nil {
		return err
	}
	return nil
}

// Searcher is an immutable, goroutine-safe handle on a validated Options
// value: every condition-(C) search it spawns uses exactly these knobs, so
// concurrent searches with different configurations are isolated — the
// property the mutable Search* globals could not provide. Construct with
// NewSearcher; DefaultSearcher derives one from the deprecated globals.
type Searcher struct {
	opts   Options
	store  explore.Store
	faults explore.FaultAdversary
	packed bool
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
	packed, err := explore.ParsePacked(o.Packed)
	if err != nil {
		return nil, err
	}
	return &Searcher{opts: o, store: store, faults: faults, packed: packed}, nil
}

// DefaultSearcher returns a Searcher snapshotting the current values of the
// deprecated Search* globals — the bridge that keeps global-configured
// callers (and the package-level helpers) working during the migration. It
// panics on unparsable globals, matching the legacy helpers' semantics: the
// globals are set programmatically or by already-validated CLI flags, so an
// invalid value is a programming error. New code should construct Options
// directly and use NewSearcher.
func DefaultSearcher() *Searcher {
	s, err := NewSearcher(Options{
		Workers:    SearchWorkers,
		Symmetry:   SearchSymmetry,
		POR:        SearchPOR,
		Store:      SearchStore,
		Checkpoint: SearchCheckpoint,
		Faults:     SearchFaults,
	})
	if err != nil {
		panic("kset: invalid Search* globals: " + err.Error())
	}
	return s
}

// Options returns the validated options the Searcher was built from.
func (s *Searcher) Options() Options { return s.opts }

// orDefault resolves a possibly-nil Searcher to the zero-options default:
// the convention of the experiment parameter structs, whose zero value now
// means "default knobs" rather than "whatever the deprecated Search*
// globals currently hold". Callers who want global-driven configuration
// must pass DefaultSearcher() explicitly — nothing in this repository does
// anymore (the Search*-reference lint step in CI keeps it that way).
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
	inst.SearchPacked = s.opts.Packed
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

// explorer builds the condition-(C) explorer FindConsensusFailure and
// SearchDigest share, so the digest always addresses exactly the search
// that would run.
func (s *Searcher) explorer(ctx context.Context, req SearchRequest) *explore.Explorer {
	return explore.New(sim.Restrict(req.Alg, req.Live), req.Inputs, explore.Options{
		Live:            req.Live,
		MaxCrashes:      req.CrashBudget,
		MaxConfigs:      req.MaxConfigs,
		Workers:         s.opts.Workers,
		Symmetry:        s.opts.Symmetry,
		POR:             s.opts.POR,
		Faults:          s.faults,
		Store:           s.store,
		Packed:          s.packed,
		Checkpoint:      s.opts.Checkpoint,
		Context:         ctx,
		OnProgress:      req.OnProgress,
		OnSnapshotError: req.OnSnapshotError,
	})
}

// FindConsensusFailure searches the subsystem of live processes for a
// disagreement or blocking witness of the algorithm under adversarial
// scheduling — the condition (C) helper on the Searcher, cancellable via
// ctx. A cancelled search returns the usual (witness, false, nil) shape
// with witness.Stats.Cancelled set.
func (s *Searcher) FindConsensusFailure(ctx context.Context, req SearchRequest) (*explore.Witness, bool, error) {
	return consensusFailure(s.explorer(ctx, req))
}

// consensusFailure runs the disagreement search on ex, then the blocking
// search unless a witness was found or the disagreement search was
// cancelled, and returns the last search's result. A cancelled search
// returns its own result: a blocking search started after it would stop at
// its first poll and report nothing visited.
func consensusFailure(ex *explore.Explorer) (*explore.Witness, bool, error) {
	w, found, err := ex.FindDisagreement()
	if err != nil || found || w.Stats.Cancelled {
		return w, found, err
	}
	return ex.FindBlocking()
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
