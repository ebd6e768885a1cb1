// Package explore performs bounded adversarial exploration of the
// configuration space of a message-passing algorithm, in the style of the
// FLP bivalence argument. It is the computational content behind condition
// (C) of Theorem 1 ("there is no algorithm that solves consensus in M'"):
// for a concrete algorithm restricted to the subsystem D-bar, the explorer
// searches the space of adversarial schedules — process-step order, message
// delivery subsets, and up to a budget of crashes — for
//
//   - disagreement witnesses: reachable configurations in which two
//     processes have decided different values (the algorithm does not solve
//     consensus in the subsystem), and
//   - blocking witnesses: reachable quiescent configurations in which some
//     correct process can never decide (a Termination violation), and
//   - valence classifications: whether a configuration is univalent or
//     bivalent, reproducing the FLP-style analysis for concrete protocols.
//
// Exploration is exact for protocols that send a bounded number of messages
// (the protocols in this repository broadcast a constant number of times per
// process), and budget-bounded otherwise.
//
// Every breadth-first search — witness searches and valence censuses alike
// — runs on one level-synchronous kernel (bounded.go), and every
// depth-first search on its cons-list twin. FindConsensusFailure, the
// condition (C) question, answers the disagreement and the blocking search
// in one breadth-first pass: the disagreement goal stops it, and the
// blocking goal's first hit is recorded as the pass seals configurations,
// with results identical to the two searches run one after the other.
//
// The hot path is engineered around four ideas. Every successor is keyed
// before it is built: the kernel plans an action on its parent
// (sim.Configuration.Plan), which steps a copy of one process's state and
// patches the parent's cached 64-bit fingerprint with the step's hash terms
// instead of materializing the O(n·|buffers|) string Key; it looks the key
// up in the visited set and commits the successor (sim.Successor.Commit)
// only when the key is new. Most successors are duplicates, and a duplicate
// costs a record copy, one step and its hash terms instead of a copy of the
// configuration. Parentage lives in per-level logs of 8-byte generation
// records, from which a witness path is read off backwards; committed
// configurations are recycled through per-context free lists
// (sim.ClonePool), so a steady-state search allocates almost nothing per
// visited configuration; and the kernel expands each frontier level across
// Options.Workers goroutines (see parallel.go) with results bit-identical to
// the sequential order. The same fan-out runs a breadth-first witness search
// sharded: N participants, each an Explorer holding the whole search (see
// Explorer.Shard), expand the frontier positions whose key they own and join
// every chunk with one all-gather round (see shard.go), in process or
// across processes. An Explorer is NOT safe for concurrent use — run
// independent searches on independent Explorers (the experiment sweeps in
// the root package do exactly that, one Explorer per sweep cell).
//
// Two opt-in reductions shrink the explored space without changing any
// verdict: Options.Symmetry collapses configurations that are process
// renamings of each other (orbit-canonical revisit keys, see sim.Symmetry),
// and Options.POR prunes redundant interleavings of commuting actions
// (ample-set partial-order reduction, see por.go). They compose.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"kset/internal/sched"
	"kset/internal/sim"
)

// action is one adversarial choice: step process Proc delivering the
// messages selected by Mode, optionally crashing it. Omit makes the crash
// step drop all of its sends (MASYNC clause (2) allows omitting sends to
// any subset of receivers in the final step; the explorer uses the two
// extremes, none and all).
type action struct {
	Proc  sim.ProcessID
	Mode  DeliveryMode
	Crash bool
	Omit  bool
	// Fault marks the step as a fault action of Options.Faults' model
	// (FaultCrash — the zero value — for plain and crash steps; a fault
	// never combines with Crash).
	Fault sim.FaultModel
}

// DeliveryMode selects which pending messages a step delivers.
type DeliveryMode int

// Delivery modes available to the adversary.
const (
	// DeliverNone performs a step with an empty delivered set L.
	DeliverNone DeliveryMode = iota
	// DeliverOldest delivers only the oldest pending message.
	DeliverOldest
	// DeliverAll flushes the whole buffer.
	DeliverAll
)

func (m DeliveryMode) String() string {
	switch m {
	case DeliverNone:
		return "none"
	case DeliverOldest:
		return "oldest"
	case DeliverAll:
		return "all"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures an exploration.
type Options struct {
	// Live lists the processes the adversary schedules; all others are
	// silently crashed before exploration starts (the restricted system
	// <D-bar> with the rest of Pi initially dead).
	Live []sim.ProcessID
	// MaxCrashes is the crash budget among Live processes (e.g. 1 for the
	// single late crash of Theorem 2).
	MaxCrashes int
	// MaxConfigs bounds the number of distinct configurations visited;
	// 0 means DefaultMaxConfigs.
	MaxConfigs int
	// Oracle optionally supplies failure-detector values (deterministic per
	// (process, time, configuration)); nil for detector-free models.
	Oracle sched.Oracle
	// Faults configures non-crash fault injection (send/receive omission,
	// Byzantine value corruption) with per-process budgets; the zero value
	// keeps the crash-only engine, bit-identical to searches that predate
	// the knob. Spent budgets are part of the simulator fingerprint, so the
	// visited/claim keys need no extra salt; POR stands down under a
	// non-crash model (see the POR field), while Symmetry extends soundly —
	// fault counts fold into the per-slot orbit signatures.
	Faults FaultAdversary
	// Modes lists the delivery modes the adversary may use; nil means all
	// three.
	Modes []DeliveryMode
	// Strategy selects the search order: "bfs" (default) finds shortest
	// witnesses; "dfs" dives to complete executions first and scales to
	// larger subsystems where BFS drowns in breadth before any process can
	// decide.
	Strategy string
	// Symmetry enables orbit-canonical revisit detection: configurations
	// that are renamings of each other under process permutations fixing the
	// proposal assignment and the live set are explored once (see
	// sim.Symmetry and sim.Configuration.Canonical64). The search then
	// visits at most as many configurations as the plain search — up to
	// |stabilizer|-fold fewer on instances with repeated inputs — while
	// witnesses remain concrete, replayable runs. Sound when the algorithm
	// is value-equivariant under those renamings and when the Oracle, if
	// any, is symmetric under them too. Algorithms opt into collapsing by
	// implementing sim.SymHasher64 on their states and payloads, and must
	// only do so when equivariant: MinWait, QuorumMin, FirstHeard, and
	// DecideOwn qualify (their id-dependent choices never cross input
	// classes); FLPKSet deliberately does not — its decide step picks a
	// minimum concrete id whose class a renaming can change (see
	// algorithms.Stage1Payload.Hash64) — so it falls back to concrete
	// hashes and the flag is a sound no-op for it. Default off.
	Symmetry bool
	// POR enables commutativity-based partial-order reduction (see por.go):
	// once every live process's state proves — through the opt-in
	// sim.SendQuiescent interface — that it will never send again, actions of
	// distinct processes have disjoint effect footprints and commute, and
	// each expansion keeps only the actions of the smallest live process with
	// a non-empty buffer; everything else — crashes against the remaining
	// budget and pending decision steps included — is deferred by
	// commutation, never lost. Reduced searches additionally key revisits by
	// the crash-normalized fingerprint (a crashed process's absorbed state
	// and undelivered messages are behaviourally inert). Disagreement,
	// blocking, and valence verdicts are exactly those of the unreduced
	// search, witnesses remain concrete replayable runs, and the reduction
	// composes multiplicatively with Symmetry; it is a full, sound no-op for
	// searches with an Oracle (detector values may depend on global time and
	// other processes' crashes, which commutation would reorder). For
	// algorithms that do not implement sim.SendQuiescent the pruning stands
	// down, while the crashed-slot key quotient — sound for any algorithm,
	// it relies only on the simulator's crash semantics — stays active, so
	// visited counts may still shrink. Default off.
	POR bool
	// Store selects where breadth-first searches keep their per-level
	// generation records (see bounded.go): StoreInMemory (the default)
	// retains them in memory, 8 bytes per visited state, and reads witnesses
	// off them; StoreFrontierOnly discards them, retaining only the compact
	// fingerprint-keyed visited set plus the current and next BFS levels,
	// and reconstructs witnesses by a bounded, deterministic re-search;
	// StoreSpill streams each sealed level's records to a disk file, from
	// which witnesses are reconstructed by random-access re-read and
	// checkpoints are written without re-searching. Verdicts, stats, and
	// witnesses are bit-identical across all three stores at every worker
	// count; only the bytes retained per visited state differ.
	Store Store
	// SpillDir is the directory for StoreSpill's level-log file; empty means
	// the system temporary directory. The file is unlinked at creation where
	// the platform allows (the open descriptor keeps it readable), so spill
	// space is reclaimed however the search — or the process — ends.
	SpillDir string
	// Checkpoint, when non-empty, names a directory in which bounded
	// breadth-first searches persist their paused state: a search that
	// truncates at MaxConfigs writes a checkpoint file (keyed by the search's
	// digest and goal kind, so unrelated searches never collide) before
	// returning, and a later search of the same instance — typically with a
	// larger MaxConfigs — finds the file and resumes where it stopped instead
	// of starting over. While the search runs, the paused state is also
	// persisted at every sealed BFS level boundary (best-effort; see
	// snapshotLevel in bounded.go), so a process killed without warning
	// resumes from the last sealed level and loses at most the partial level
	// in flight. A checkpoint file that fails to load on the automatic resume
	// path is quarantined (renamed aside with a ".corrupt" suffix) and the
	// search starts fresh — corruption can cost re-exploration, never a
	// verdict. Requires the (default) BFS strategy; see checkpoint.go.
	Checkpoint string
	// Context, when non-nil, cancels searches cooperatively: the search
	// loops poll it every cancelInterval visited configurations (the
	// parallel fan-out at every chunk), and a cancelled search stops early
	// with Stats.Cancelled (and Stats.Truncated) set instead of returning an
	// error — for breadth-first witness searches this takes the exact
	// truncation path, so a cancelled search with Options.Checkpoint set
	// snapshots its paused state mid-level and a later identical search
	// resumes where it stopped (see bounded.go). Valence analyses run on the
	// same kernel and poll the context the same way. Until the first poll
	// after cancellation the search behaves exactly as without a context, so
	// a never-cancelled context changes nothing — verdicts, stats, and
	// witnesses remain bit-identical.
	Context context.Context
	// OnProgress, when non-nil, receives (visited, level) updates while a
	// witness search runs: at every sealed BFS level boundary for
	// breadth-first searches, and every progressInterval visited
	// configurations with level -1 for depth-first searches (whose traversal
	// has no level structure). FindConsensusFailure reports the levels of
	// both of its searches, in order, also where one pass answers both: the
	// blocking search's marks are then replayed from the pass's once it ends.
	// Calls are made from the goroutine driving the search — never
	// concurrently — and must return quickly: the search blocks while the
	// callback runs.
	OnProgress func(visited, level int)
	// OnSnapshotError, when non-nil, is called when a best-effort
	// level-boundary checkpoint snapshot fails (disk full, permissions):
	// the search continues — snapshots are an optimization, never a
	// correctness requirement — but later snapshots are skipped, so a
	// crash now costs a full re-exploration. The callback fires once per
	// search, from the goroutine driving it, at the moment durability
	// degrades; Stats.SnapshotFailed records the same fact at completion.
	OnSnapshotError func(error)
	// Workers caps the number of goroutines expanding the BFS frontier.
	// Zero means GOMAXPROCS; 1 runs the kernel's serial loop, which expands
	// one parent at a time. Any value above 1 runs its chunked fan-out (see
	// parallel.go), whose results — visited set, level logs, witness, and
	// stats — are bit-identical to the serial loop's (the kernel golden
	// table pins this). DFS searches are always sequential: depth-first
	// order is inherently serial, and the engine relies on its action
	// ordering to reach complete executions quickly. Oracles queried from a
	// parallel search must be pure functions of (process, time,
	// configuration) and safe for concurrent use; the fd package's
	// pattern-based oracles are, the stateful ReplayOracle is not.
	Workers int
}

// DefaultMaxConfigs bounds exploration when Options.MaxConfigs is zero.
const DefaultMaxConfigs = 250000

// Explorer enumerates reachable configurations of an algorithm under
// adversarial scheduling. It is not safe for concurrent use: searches share
// the explorer's scratch buffers and configuration free list. (The kernel's
// parallel fan-out is internally concurrent but owns one searchCtx per
// worker; the Explorer itself still serves one search at a time.)
type Explorer struct {
	alg    sim.Algorithm
	inputs []sim.Value
	opts   Options

	// omitAll is the read-only full omission set shared by every
	// crash-with-omissions step request.
	omitAll map[sim.ProcessID]bool
	// sym is the input-stabilizer used for orbit-canonical revisit keys when
	// Options.Symmetry is set; nil otherwise.
	sym *sim.Symmetry
	// por reports that partial-order reduction is active: Options.POR was set
	// and the search is oracle-free (an oracle may observe global time and
	// other processes' crash flags — and in principle any crashed-slot
	// content — so both the commutation pruning and the crashed-slot key
	// normalization stand down when one is configured).
	por bool
	// pointer forces the pointer configuration engine. Searches otherwise
	// run on the packed struct-of-arrays engine (see sim.Packer), which
	// clones a configuration with a handful of memcpys instead of
	// per-process allocations, wherever sim.PackerFor accepts the
	// algorithm/system pair. Results are bit-identical on both engines, so
	// the engine stays out of the search digest. Witness replay sets it for
	// the replayed run; tests set it to run the pointer engine, against
	// which the golden matrix, TestPackedConfigurationLockstep and
	// FuzzPackedParity compare the packed one.
	pointer bool
	// sc is the explorer's own search context, used by the serial loops and
	// by the critical-step driver.
	sc searchCtx
	// pending is the paused state of the most recent truncated
	// breadth-first search with a retained level log, staged for Snapshot
	// and for resuming (see bounded.go and checkpoint.go).
	pending *pausedSearch
	// shard is the explorer's part in a sharded search (see Shard); nil for
	// a plain one.
	shard *shardRole
	// onVisited, when set, receives the visited-key set of every search the
	// explorer starts (see newVisited). It is a test seam: the golden table
	// digests the sets to prove engines seal identical configurations.
	onVisited func(*visitedSet)
	// onCommit, when set, is called once per successor the explorer's
	// searches build (see searchCtx.commit), concurrently from the fan-out's
	// workers. It is a test seam counting the configurations a search
	// builds.
	onCommit func()
}

// searchCtx bundles the mutable per-goroutine scratch state of a search:
// the configuration free list, the planned successor, and the delivery-id
// and action-enumeration buffers. The serial loops use the explorer's own
// context; the parallel fan-out gives every worker its own, so the
// plan/commit/release hot path never contends across workers.
type searchCtx struct {
	e *Explorer
	// pool recycles retired configurations as commit destinations.
	pool sim.ClonePool
	// succ is the planned successor of the last plan (see plan).
	succ sim.Successor
	// scratch is the reusable delivery-id buffer for step requests.
	scratch []int64
	// actbuf is the reusable action-enumeration buffer (see actions).
	actbuf []action
}

// New returns an explorer for the given algorithm and proposal vector.
// Inputs must cover all n processes of the full system; processes outside
// opts.Live are silently crashed at the start of every exploration.
func New(alg sim.Algorithm, inputs []sim.Value, opts Options) *Explorer {
	if len(opts.Modes) == 0 {
		opts.Modes = []DeliveryMode{DeliverNone, DeliverOldest, DeliverAll}
	}
	if opts.MaxConfigs <= 0 {
		opts.MaxConfigs = DefaultMaxConfigs
	}
	if opts.Faults.Model != sim.FaultCrash && opts.Faults.Budget <= 0 {
		opts.Faults.Budget = 1
	}
	live := append([]sim.ProcessID(nil), opts.Live...)
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	opts.Live = live
	omitAll := make(map[sim.ProcessID]bool, len(inputs))
	for p := 1; p <= len(inputs); p++ {
		omitAll[sim.ProcessID(p)] = true
	}
	e := &Explorer{
		alg:     alg,
		inputs:  append([]sim.Value(nil), inputs...),
		opts:    opts,
		omitAll: omitAll,
	}
	if opts.Symmetry {
		e.sym = sim.NewSymmetry(e.inputs, opts.Live)
	}
	// POR additionally requires DeliverAll among the enumerated modes: the
	// soundness argument's second case covers paths that never step the
	// leader by prepending a full flush of its buffer, and the
	// oldest-on-singleton duplicate prune identifies DeliverOldest with
	// DeliverAll — neither holds for a custom Modes list without DeliverAll,
	// so the reduction (pruning and key quotient alike) stands down there.
	// Non-crash fault models stand POR down the same way oracles do: the
	// commutation argument assumes a process's step footprint is its own
	// slot and buffer, but fault branching gives every step an adversary
	// choice whose availability (remaining budgets, the faulty-set cap)
	// other processes' fault steps can change, and the crashed-slot key
	// quotient would erase spent budgets of crashed processes.
	e.por = opts.POR && opts.Oracle == nil && hasMode(opts.Modes, DeliverAll) &&
		opts.Faults.Model == sim.FaultCrash
	e.sc.e = e
	return e
}

func hasMode(modes []DeliveryMode, m DeliveryMode) bool {
	for _, x := range modes {
		if x == m {
			return true
		}
	}
	return false
}

// searchWorkers resolves Options.Workers: 0 means GOMAXPROCS.
func (e *Explorer) searchWorkers() int {
	w := e.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// initial builds the starting configuration — on the packed engine unless
// the algorithm has no packer or the explorer is forced onto the pointer
// engine — with everyone outside Live silently crashed (initially dead).
func (e *Explorer) initial() (*sim.Configuration, error) {
	var cfg *sim.Configuration
	if !e.pointer {
		cfg, _ = sim.NewPackedConfiguration(e.alg, e.inputs)
	}
	if cfg == nil {
		cfg = sim.NewConfiguration(e.alg, e.inputs)
	}
	liveSet := make(map[sim.ProcessID]bool, len(e.opts.Live))
	for _, p := range e.opts.Live {
		liveSet[p] = true
	}
	for _, p := range cfg.ProcessIDs() {
		if !liveSet[p] {
			if _, err := cfg.Apply(sim.StepRequest{Proc: p, SilentCrash: true}); err != nil {
				return nil, fmt.Errorf("explore: initial silent crash of %d: %w", p, err)
			}
		}
	}
	if e.sym != nil {
		cfg.AttachSymmetry(e.sym)
	}
	return cfg, nil
}

// initialView builds the starting configuration on the pointer engine,
// whichever engine the searches run on. Witness replay uses it: a replayed
// Run escapes to callers who inspect states, apply further steps, and
// expect the materialized event trail that the packed engine elides.
func (e *Explorer) initialView() (*sim.Configuration, error) {
	pointer := e.pointer
	e.pointer = true
	cfg, err := e.initial()
	e.pointer = pointer
	return cfg, err
}

// newVisited returns the empty visited-key set of a new search, handing it
// to onVisited when set.
func (e *Explorer) newVisited() *visitedSet {
	v := newVisitedSet()
	if e.onVisited != nil {
		e.onVisited(v)
	}
	return v
}

// fingerprints is what a key reads of a configuration: a
// *sim.Configuration, or a *sim.Successor planned from one, whose key is
// thereby known before the successor is built.
type fingerprints interface {
	Fingerprint() uint64
	LiveFingerprint() uint64
	Canonical64() uint64
	LiveCanonical64() uint64
}

// cfgKey combines the configuration fingerprint with the crash budget
// spent, since the same configuration with different remaining budgets has
// different futures. It replaces the old string nodeKey on the search hot
// path; the string Key() remains for explain/debug output.
func cfgKey(cfg fingerprints, crashes int) uint64 {
	return sim.HashMix(cfg.Fingerprint() ^ (uint64(crashes) * 0x9e3779b97f4a7c15))
}

// key is the visited/claim key of every search on this explorer: the plain
// fingerprint key, or the orbit-canonical one under Options.Symmetry (the
// crash budget spent is folded in either way — renamings preserve it, so
// it is orbit-invariant). Reduced searches use the crash-normalized
// variants (sim.Configuration.LiveFingerprint / LiveCanonical64), which
// additionally collapse configurations differing only in behaviourally
// inert crashed-slot content — a crashed process's absorbed state and
// undelivered messages can never influence a future step or verdict, so
// the quotient is sound independently of the commutation pruning.
func (e *Explorer) key(cfg fingerprints, crashes int) uint64 {
	salt := uint64(crashes) * 0x9e3779b97f4a7c15
	switch {
	case e.sym != nil && e.por:
		return sim.HashMix(cfg.LiveCanonical64() ^ salt)
	case e.sym != nil:
		return sim.HashMix(cfg.Canonical64() ^ salt)
	case e.por:
		return sim.HashMix(cfg.LiveFingerprint() ^ salt)
	}
	return cfgKey(cfg, crashes)
}

// release returns a configuration to the context's free list. Callers must
// not touch it afterwards: its allocations are reused by the next pooled
// clone.
func (sc *searchCtx) release(c *sim.Configuration) {
	sc.pool.Put(c)
}

// plan plans act at cfg into the context's successor (see
// sim.Configuration.Plan) and reports whether the action applies. Nothing is
// built and cfg is only read, so the fan-out's workers plan from a shared
// frontier: a search keys sc.succ and commits it only when the key is new.
func (sc *searchCtx) plan(cfg *sim.Configuration, act action) bool {
	e := sc.e
	if cfg.Crashed(act.Proc) {
		return false
	}
	req := sim.StepRequest{Proc: act.Proc, Crash: act.Crash}
	if act.Crash && act.Omit {
		req.OmitTo = e.omitAll
	}
	faultRequest(&req, act.Fault)
	switch act.Mode {
	case DeliverNone:
	case DeliverOldest:
		id, ok := cfg.OldestMessageID(act.Proc)
		if !ok {
			return false // identical to DeliverNone; skip duplicate branch
		}
		sc.scratch = append(sc.scratch[:0], id)
		req.Deliver = sc.scratch
	case DeliverAll:
		sc.scratch = cfg.AppendDeliveryIDs(sc.scratch[:0], act.Proc)
		if len(sc.scratch) == 0 {
			return false // identical to DeliverNone
		}
		req.Deliver = sc.scratch
	}
	if e.opts.Oracle != nil {
		req.FD = e.opts.Oracle.Query(act.Proc, cfg.Time(), cfg)
	}
	return cfg.Plan(req, &sc.succ) == nil
}

// commit builds the successor of the last plan on a pooled configuration.
// The result is owned by the caller; hand it back via release when it
// leaves the search.
func (sc *searchCtx) commit() *sim.Configuration {
	if sc.e.onCommit != nil {
		sc.e.onCommit()
	}
	return sc.succ.Commit(sc.pool.Get())
}

// actions enumerates the adversary's choices at cfg with the given crash
// budget already spent, filtered through the partial-order-reduction plan
// when Options.POR is active (see por.go; the plan is a pure function of
// the configuration, so every search path — serial, parallel, valence —
// enumerates identical slices). The returned slice aliases the context's
// reusable buffer and is invalidated by the next actions call; copy it when
// the caller explores recursively while iterating (critical.go does).
func (sc *searchCtx) actions(cfg *sim.Configuration, crashes int) []action {
	return sc.enumerate(cfg, crashes, sc.e.porPlan(cfg))
}

// actionsFull enumerates every adversary choice, bypassing the reduction:
// the critical-step analysis reports per-action data for each first step
// and must list them all regardless of Options.POR.
func (sc *searchCtx) actionsFull(cfg *sim.Configuration, crashes int) []action {
	return sc.enumerate(cfg, crashes, porPlan{})
}

func (sc *searchCtx) enumerate(cfg *sim.Configuration, crashes int, plan porPlan) []action {
	e := sc.e
	out := sc.actbuf[:0]
	for _, p := range e.opts.Live {
		if cfg.Crashed(p) {
			continue
		}
		bufsize := cfg.BufferSize(p)
		// Crash variants first, plain steps last: DFS pops from the end of
		// the slice, so it drives ordinary full-delivery steps toward
		// decisions before spending the crash budget.
		if crashes < e.opts.MaxCrashes {
			for _, m := range e.opts.Modes {
				if plan.prunes(p, m, bufsize) {
					continue
				}
				out = append(out, action{Proc: p, Mode: m, Crash: true})
				if !plan.frozen {
					// In the send-quiescent cone the final step sends
					// nothing, so omitting its sends is the identity and the
					// omit variant duplicates the plain crash byte-for-byte.
					out = append(out, action{Proc: p, Mode: m, Crash: true, Omit: true})
				}
			}
		}
		// Fault variants between the crash block and the plain block: DFS
		// reaches plain progress steps first, then spends fault budgets,
		// then crash budgets. POR is off whenever these are enumerated (see
		// New), so plan is empty and no fault branch can be pruned away.
		if e.canFault(cfg, p) {
			for _, m := range e.opts.Modes {
				if m == DeliverNone && e.opts.Faults.Model == sim.FaultReceiveOmission {
					// Dropping an empty delivery is the identity; the
					// variant would duplicate the plain DeliverNone step.
					continue
				}
				out = append(out, action{Proc: p, Mode: m, Fault: e.opts.Faults.Model})
			}
		}
		for _, m := range e.opts.Modes {
			if plan.prunes(p, m, bufsize) {
				continue
			}
			out = append(out, action{Proc: p, Mode: m})
		}
	}
	sc.actbuf = out
	return out
}

// Explorer-level delegates to the explorer's own search context, used by the
// serial search loops and the in-package tests.

func (e *Explorer) release(c *sim.Configuration) { e.sc.release(c) }

func (e *Explorer) actions(cfg *sim.Configuration, crashes int) []action {
	return e.sc.actions(cfg, crashes)
}

// Stats reports exploration effort.
type Stats struct {
	// Visited is the number of distinct configurations explored.
	Visited int
	// Truncated reports that the MaxConfigs budget stopped the search, so a
	// negative answer ("no witness found") is not exhaustive.
	Truncated bool
	// Cancelled reports that Options.Context was cancelled before the search
	// finished. A cancelled search stopped early exactly like a truncated
	// one — Truncated is set alongside — so bounded searches pause and
	// checkpoint identically; Cancelled only records why the stop happened.
	Cancelled bool
	// SnapshotFailed reports that a best-effort level-boundary checkpoint
	// snapshot failed during the search (and later snapshots were skipped):
	// the verdict is unaffected, but crash durability degraded to the last
	// snapshot that succeeded. Only ever set when Options.Checkpoint is
	// configured; see Options.OnSnapshotError for mid-run notification.
	SnapshotFailed bool
}

// cancelInterval is the visited-count stride between Options.Context polls
// in the serial search loops: frequent enough that cancellation lands within
// milliseconds, sparse enough that the poll (a mutex acquisition inside
// context.Context.Err) stays off the per-configuration hot path.
const cancelInterval = 1024

// progressInterval is the visited-count stride between Options.OnProgress
// calls in search loops without level structure (DFS).
const progressInterval = 8192

// cancelled reports whether Options.Context has been cancelled. Callers poll
// it on a visited-count stride, not per configuration.
func (e *Explorer) cancelled() bool {
	return e.opts.Context != nil && e.opts.Context.Err() != nil
}

// progress delivers a (visited, level) update to Options.OnProgress; level
// is -1 for traversals without level structure.
func (e *Explorer) progress(visited, level int) {
	if e.opts.OnProgress != nil {
		e.opts.OnProgress(visited, level)
	}
}
