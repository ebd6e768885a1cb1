package explore

// This file implements the explorer's search kernel: the level-synchronous
// breadth-first loop behind every witness search and valence census, its
// chunked parallel fan-out, and the depth-first search.
//
// The breadth-first kernel keeps, per visited configuration, only its
// revisit key in the compact visitedSet of visited.go (~11-16 B/state) plus
// the live configurations of the current and next BFS levels. Parentage is
// never stored per node: the traversal is fully deterministic, so each level
// is a pure function of the previous one. The kernel therefore records, per
// level, the sequence of generation records (parent position in the previous
// level, action) into a pluggable sink chosen by Options.Store:
//
//   - StoreInMemory retains them in memory, 8 bytes per record. A witness
//     path is read off the log by a backward walk, one record per level.
//
//   - StoreFrontierOnly discards them as levels seal. If a goal
//     configuration is found at depth d, the witness path is reconstructed
//     by a bounded re-search: the same deterministic traversal is re-run
//     with a recording sink and stops at the identical hit, after which the
//     path is read off the records. The re-search doubles the time to the
//     witness — never the memory — and verification runs that find nothing
//     (the memory-critical case) never pay it.
//
//   - StoreSpill streams sealed levels to a temporary disk file instead,
//     8 bytes per record. Witness reconstruction walks the file backwards by
//     random access and checkpoints are written by streaming re-read, both
//     without re-searching.
//
// Truncation at MaxConfigs becomes a pause instead of a dead end: with
// Options.Checkpoint set, the paused state (the level logs — everything
// else regenerates from them) is persisted and a later search of the same
// instance resumes exactly where this one stopped; see checkpoint.go.
//
// The serial loop and the chunked parallel fan-out built on expandLevel of
// parallel.go visit configurations in exactly the same order, so verdicts,
// stats, truncation behaviour, and reconstructed witnesses are bit-identical
// at every store and worker count (the kernel golden table pins this). A
// sharded search runs the same fan-out on every participant, each expanding
// the parents it owns and joining the others with one round per chunk (see
// shard.go), so it is bit-identical at every shard count as well. The
// depth-first search at the bottom of the file keeps witnesses as immutable
// cons-list paths hanging off the stack (dead branches are
// garbage-collected), which bounds DFS memory by the visited-key set plus
// the live stack.

import (
	"fmt"
	"os"

	"kset/internal/sim"
)

// Store selects the memory regime of a search; see Options.Store.
type Store int

// Store modes.
const (
	// StoreInMemory retains the level logs in memory, 8 bytes per visited
	// configuration (default).
	StoreInMemory Store = iota
	// StoreFrontierOnly retains only the compact visited-key set and the
	// current/next BFS levels; witnesses reconstruct by bounded re-search.
	StoreFrontierOnly
	// StoreSpill is StoreFrontierOnly plus sealed level logs streamed to a
	// temporary disk file, enabling re-search-free witness reconstruction
	// and cheap checkpoints.
	StoreSpill
)

func (s Store) String() string {
	switch s {
	case StoreInMemory:
		return "inmem"
	case StoreFrontierOnly:
		return "frontier"
	case StoreSpill:
		return "spill"
	default:
		return fmt.Sprintf("store(%d)", int(s))
	}
}

// ParseStore parses the CLI spelling of a store mode: "inmem" (or empty),
// "frontier", or "spill".
func ParseStore(s string) (Store, error) {
	switch s {
	case "", "inmem":
		return StoreInMemory, nil
	case "frontier":
		return StoreFrontierOnly, nil
	case "spill":
		return StoreSpill, nil
	default:
		return 0, fmt.Errorf("explore: unknown store %q (want inmem, frontier, or spill)", s)
	}
}

// levelRec is one generation record of a bounded search: frontier entry
// number pos of level l+1 was produced by applying act to entry parent of
// level l. Level logs are sequences of these, in frontier order.
type levelRec struct {
	parent int32
	act    action
}

// recBits packs a record into the fixed 8-byte on-disk encoding shared by
// the spill file and the checkpoint format: parent in the low 32 bits, then
// process id (16), delivery mode (8), and a flags byte — crash (bit 0),
// omit (bit 1), and the step's fault model (bits 2-3; 0 for non-fault
// steps, so crash-only encodings are unchanged from earlier versions).
func recBits(r levelRec) uint64 {
	var flags uint64
	if r.act.Crash {
		flags |= 1
	}
	if r.act.Omit {
		flags |= 2
	}
	flags |= uint64(r.act.Fault) << 2
	return uint64(uint32(r.parent)) |
		uint64(uint16(r.act.Proc))<<32 |
		uint64(uint8(r.act.Mode))<<48 |
		flags<<56
}

// recFromBits is the inverse of recBits.
func recFromBits(b uint64) levelRec {
	return levelRec{
		parent: int32(uint32(b)),
		act: action{
			Proc:  sim.ProcessID(uint16(b >> 32)),
			Mode:  DeliveryMode(uint8(b >> 48)),
			Crash: b>>56&1 != 0,
			Omit:  b>>56&2 != 0,
			Fault: sim.FaultModel(b >> 58 & 3),
		},
	}
}

// levelSink receives the generation records of a bounded search, one begun
// level at a time. Level l's records generate frontier level l+1.
type levelSink interface {
	// beginLevel opens the next level's record sequence.
	beginLevel() error
	// append adds a record to the most recently begun level.
	append(rec levelRec) error
	// levels returns the number of levels begun.
	levels() int
	// levelLen returns the number of records appended to level l.
	levelLen(l int) int
	// record returns the pos'th record of level l. Only retained sinks
	// support it.
	record(l, pos int) (levelRec, error)
	// retained reports whether records can be read back — the condition for
	// re-search-free witness reconstruction and for checkpointing.
	retained() bool
	// discard releases the sink's resources (no-op where there are none).
	discard()
}

// discardSink counts records without keeping them: the StoreFrontierOnly
// sink when no checkpoint directory is configured.
type discardSink struct {
	lens []int
}

func (d *discardSink) beginLevel() error { d.lens = append(d.lens, 0); return nil }
func (d *discardSink) append(levelRec) error {
	d.lens[len(d.lens)-1]++
	return nil
}
func (d *discardSink) levels() int        { return len(d.lens) }
func (d *discardSink) levelLen(l int) int { return d.lens[l] }
func (d *discardSink) record(l, pos int) (levelRec, error) {
	return levelRec{}, fmt.Errorf("explore: level records were discarded (frontier-only store)")
}
func (d *discardSink) retained() bool { return false }
func (d *discardSink) discard()       {}

// memSink retains records in memory, 8 bytes each in packed form: the
// StoreInMemory sink, and the recording sink of witness re-searches, of
// checkpoint-enabled frontier-only searches, and of restored checkpoints.
type memSink struct {
	recs [][]uint64
}

func (m *memSink) beginLevel() error { m.recs = append(m.recs, nil); return nil }
func (m *memSink) append(rec levelRec) error {
	m.recs[len(m.recs)-1] = append(m.recs[len(m.recs)-1], recBits(rec))
	return nil
}
func (m *memSink) levels() int        { return len(m.recs) }
func (m *memSink) levelLen(l int) int { return len(m.recs[l]) }
func (m *memSink) record(l, pos int) (levelRec, error) {
	return recFromBits(m.recs[l][pos]), nil
}
func (m *memSink) retained() bool { return true }
func (m *memSink) discard()       {}

// diskSink streams records to a temporary file: the StoreSpill sink. Writes
// go through an in-memory tail buffer flushed at level boundaries; record()
// reads are served from the tail when possible and by ReadAt otherwise, so
// backward witness walks touch the disk only for long-sealed levels.
type diskSink struct {
	f    *os.File
	offs []int64 // byte offset of each level's first record
	lens []int
	size int64  // bytes flushed to the file
	tail []byte // records not yet flushed (current level's)
	// rbuf caches one read block so the sequential record() walks of
	// checkpoint serialization and resume regeneration cost one pread per
	// 64 KiB instead of one per 8-byte record. Flushed bytes are immutable
	// (appends only extend the file), so the cache never invalidates.
	rbuf    []byte
	rbufOff int64
}

// newDiskSink creates the spill file in dir ("" = os.TempDir()) and
// immediately unlinks it where the platform allows (the open descriptor
// keeps the storage alive), so spill space is reclaimed by the OS no matter
// how the search — or the process — ends; discard closes the descriptor and
// re-removes the name for platforms where unlink-while-open fails.
func newDiskSink(dir string) (*diskSink, error) {
	f, err := os.CreateTemp(dir, "kset-spill-*.lvl")
	if err != nil {
		return nil, fmt.Errorf("explore: creating spill file: %w", err)
	}
	os.Remove(f.Name())
	return &diskSink{f: f}, nil
}

func (d *diskSink) beginLevel() error {
	if err := d.flush(); err != nil {
		return err
	}
	d.offs = append(d.offs, d.size)
	d.lens = append(d.lens, 0)
	return nil
}

func (d *diskSink) append(rec levelRec) error {
	bits := recBits(rec)
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(bits >> (8 * i))
	}
	d.tail = append(d.tail, buf[:]...)
	d.lens[len(d.lens)-1]++
	if len(d.tail) >= 1<<20 {
		return d.flush()
	}
	return nil
}

func (d *diskSink) flush() error {
	if len(d.tail) == 0 {
		return nil
	}
	if _, err := d.f.WriteAt(d.tail, d.size); err != nil {
		return fmt.Errorf("explore: spill write: %w", err)
	}
	d.size += int64(len(d.tail))
	d.tail = d.tail[:0]
	return nil
}

func (d *diskSink) levels() int        { return len(d.offs) }
func (d *diskSink) levelLen(l int) int { return d.lens[l] }

func (d *diskSink) record(l, pos int) (levelRec, error) {
	off := d.offs[l] + 8*int64(pos)
	if off >= d.size {
		// Not yet flushed: serve from the tail buffer.
		t := off - d.size
		return recFromBits(leUint64(d.tail[t : t+8])), nil
	}
	if off < d.rbufOff || off+8 > d.rbufOff+int64(len(d.rbuf)) {
		n := int64(1 << 16)
		if off+n > d.size {
			n = d.size - off
		}
		if int64(cap(d.rbuf)) < n {
			d.rbuf = make([]byte, n)
		}
		d.rbuf = d.rbuf[:n]
		if _, err := d.f.ReadAt(d.rbuf, off); err != nil {
			d.rbuf = d.rbuf[:0]
			return levelRec{}, fmt.Errorf("explore: spill read: %w", err)
		}
		d.rbufOff = off
	}
	t := off - d.rbufOff
	return recFromBits(leUint64(d.rbuf[t : t+8])), nil
}

func (d *diskSink) retained() bool { return true }

func (d *diskSink) discard() {
	name := d.f.Name()
	d.f.Close()
	os.Remove(name)
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// boundedState is the complete state of a (possibly paused) bounded
// breadth-first search. Everything except the live configurations of
// frontier/next is either in the visited set or regenerable from the sink's
// level logs, which is exactly what makes the search checkpointable.
type boundedState struct {
	vis      *visitedSet
	sink     levelSink
	frontier []qent // current level's configurations
	next     []qent // next level's, possibly partial
	pos      int    // next unexpanded parent position within frontier
	level    int    // depth of frontier (root = 0)
	stats    Stats
	// kind is the goal kind of the running search, so the level-boundary
	// snapshots of snapshotLevel can name their checkpoint file.
	kind string
	// snapErr latches the first level-boundary snapshot failure: periodic
	// snapshots are best-effort (a full disk must not fail a search that
	// would succeed without checkpointing), but after one failure further
	// attempts are skipped rather than hammering the same broken disk.
	snapErr error
	// quiet suppresses OnProgress: the witness re-search replays levels the
	// original pass already reported, and re-emitting them would make the
	// caller's counters jump backward; valence censuses report none.
	quiet bool
	// census, when set, makes the search a valence census (see valenceFrom):
	// it stops before the next parent once the census is full.
	census *census
	// blocking, when set, makes a disagreement pass also stand in for the
	// blocking search (see consensusFailurePass).
	blocking *blockingRecord
}

// blockingRecord is what a disagreement pass records for the blocking search
// it stands in for. The traversal does not depend on the goal, so the
// blocking search would walk the pass's own prefix and stop at the first
// sealed configuration blockingGoal holds on.
type blockingRecord struct {
	hit   *boundedHit // that configuration; nil while there is none
	stats Stats       // the blocking search's Stats at hit
	marks [][2]int    // (visited, level) of every level the pass sealed
}

// note checks cfg, just sealed as the last record of the current level's log
// with visited parents counted, unless a hit is recorded already.
func (b *blockingRecord) note(sc *searchCtx, st *boundedState, cfg *sim.Configuration, visited int) {
	if b == nil || b.hit != nil {
		return
	}
	if detail, ok := blockingGoal(sc, cfg); ok {
		b.hit = &boundedHit{level: st.level + 1, pos: st.sink.levelLen(st.level) - 1, detail: detail}
		b.stats = st.stats
		b.stats.Visited = visited
	}
}

// boundedHit locates a goal configuration in the level structure: frontier
// entry pos of level (level 0 is the root, checked before the loop).
type boundedHit struct {
	level  int
	pos    int
	detail string
}

// pausedSearch is a truncated bounded search reduced to its regenerable
// core: the retained level logs plus the scalar cursor. Explorer.Snapshot
// serializes it; boundedStart revives it (in-session or via Restore).
type pausedSearch struct {
	kind    string
	digest  uint64
	sink    levelSink
	level   int
	pos     int
	visited int
}

// newSink picks the level sink for a fresh breadth-first search: disk for
// StoreSpill, memory for StoreInMemory or when a checkpoint directory
// demands retention, counting-only otherwise.
func (e *Explorer) newSink() (levelSink, error) {
	if e.opts.Store == StoreSpill {
		return newDiskSink(e.opts.SpillDir)
	}
	if e.opts.Store == StoreInMemory || e.opts.Checkpoint != "" {
		return &memSink{}, nil
	}
	return &discardSink{}, nil
}

// boundedStart builds the starting state of a bounded search: a resumed one
// when a matching paused search is pending (in-session from a previous
// truncation, or auto-restored from the checkpoint directory), a fresh root
// state otherwise. fresh reports which, so the caller knows whether the
// root configuration still needs its goal check.
//
// The automatic resume path treats checkpoints as purely an optimization: a
// file that fails to decode, carries a foreign digest, or replays
// inconsistently (a partial write the checksum happened to miss, manual
// tampering, fingerprint-encoding drift) is quarantined aside and the search
// falls back to a fresh root — it must never wedge a search that would
// succeed from scratch. The explicit Restore API keeps its strict error
// contract for callers that need to know.
func (e *Explorer) boundedStart(kind string) (st *boundedState, fresh bool, err error) {
	// A pending paused search of a different goal kind (the engine runs
	// disagreement then blocking on one explorer) must not mask this kind's
	// on-disk checkpoint; its own state was already persisted at pause time
	// when a checkpoint directory is configured, so overwriting the pending
	// slot loses nothing resumable.
	fromDisk := false
	if (e.pending == nil || e.pending.kind != kind) && e.opts.Checkpoint != "" {
		path := e.checkpointFile(kind)
		if _, statErr := os.Stat(path); statErr == nil {
			if err := e.Restore(path); err != nil {
				quarantineFile(path)
			} else {
				fromDisk = true
			}
		}
	}
	if p := e.pending; p != nil && p.kind == kind {
		e.pending = nil
		st, err := e.regenerate(p)
		if err != nil {
			p.sink.discard()
			if fromDisk {
				// The file passed its checksum but its log is inconsistent
				// with this search (it replays an inapplicable action or
				// revisits a sealed key): quarantine and start over.
				quarantineFile(e.checkpointFile(kind))
				return e.boundedFresh()
			}
			// An in-session pending state was produced by this very process;
			// failing to regenerate it is a bug, not file corruption.
			return nil, false, err
		}
		return st, false, nil
	}
	return e.boundedFresh()
}

// boundedFresh builds the root state of a witness search.
func (e *Explorer) boundedFresh() (*boundedState, bool, error) {
	start, err := e.initial()
	if err != nil {
		return nil, false, err
	}
	sink, err := e.newSink()
	if err != nil {
		return nil, false, err
	}
	return e.rootState(start, 0, sink), true, nil
}

// rootState builds the state of a breadth-first search whose only frontier
// entry is start, reached with crashes already spent.
func (e *Explorer) rootState(start *sim.Configuration, crashes int, sink levelSink) *boundedState {
	vis := e.newVisited()
	vis.Insert(e.key(start, crashes))
	return &boundedState{
		vis:      vis,
		sink:     sink,
		frontier: []qent{{cfg: start, crashes: int32(crashes)}},
	}
}

// regenerate rebuilds the live search state of a paused search from its
// level logs: replaying the generation records level by level reconstructs
// the frontier configurations, their crash budgets, and the visited-key set
// in one O(visited) pass — nothing else was ever persisted. A log that does
// not describe a pause of this search — a cursor off its levels, a parent
// outside the level it names, an inapplicable action, a revisited key, a
// visited count that does not add up — is rejected as corrupt.
func (e *Explorer) regenerate(p *pausedSearch) (*boundedState, error) {
	levels := p.sink.levels()
	// A pause is taken mid-level, with the paused level's log begun, or at
	// a sealed level boundary, before the next log begins.
	if p.level != levels-1 && (p.level != levels || p.pos != 0) {
		return nil, fmt.Errorf("explore: corrupt checkpoint: paused at level %d position %d with %d level logs", p.level, p.pos, levels)
	}
	start, err := e.initial()
	if err != nil {
		return nil, err
	}
	st := e.rootState(start, 0, p.sink)
	expanded := 0 // parents of the levels before st.level
	for ; st.level < p.level; st.level++ {
		next, err := e.regenerateLevel(st, len(st.frontier))
		if err != nil {
			return nil, err
		}
		for i := range st.frontier {
			e.sc.release(st.frontier[i].cfg)
		}
		expanded += len(st.frontier)
		st.frontier = next
	}
	if p.pos > len(st.frontier) || expanded+p.pos != p.visited {
		return nil, fmt.Errorf("explore: corrupt checkpoint: position %d of a %d-entry level %d does not make %d visited", p.pos, len(st.frontier), p.level, p.visited)
	}
	st.pos = p.pos
	st.stats.Visited = p.visited
	if p.level < levels {
		// The partial log of the paused level: its records came from the
		// parents before the cursor and make up the partial next level.
		if st.next, err = e.regenerateLevel(st, p.pos); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// regenerateLevel replays the log of level st.level, whose records must name
// parents among the first parents entries of st.frontier, sealing each
// regenerated configuration into st.vis; it returns them in log order.
func (e *Explorer) regenerateLevel(st *boundedState, parents int) ([]qent, error) {
	l := st.level
	n := st.sink.levelLen(l)
	next := make([]qent, 0, n)
	for j := 0; j < n; j++ {
		rec, err := st.sink.record(l, j)
		if err != nil {
			return nil, err
		}
		if rec.parent < 0 || int(rec.parent) >= parents {
			return nil, fmt.Errorf("explore: corrupt checkpoint: level %d record %d parent %d outside [0, %d)", l, j, rec.parent, parents)
		}
		parent := st.frontier[rec.parent]
		if !e.sc.plan(parent.cfg, rec.act) {
			return nil, fmt.Errorf("explore: corrupt checkpoint: level %d record %d action inapplicable", l, j)
		}
		crashes := parent.crashes
		if rec.act.Crash {
			crashes++
		}
		if !st.vis.Insert(e.key(&e.sc.succ, int(crashes))) {
			return nil, fmt.Errorf("explore: corrupt checkpoint: level %d record %d revisits a sealed key", l, j)
		}
		next = append(next, qent{cfg: e.sc.commit(), crashes: crashes})
	}
	return next, nil
}

// searchBounded is the breadth-first witness search: identical verdicts,
// stats, truncation behaviour, and witnesses at every store and worker
// count, with only the visited-key set, two frontier levels, and the
// store's level log retained.
func (e *Explorer) searchBounded(goal goalFunc, kind string) (*Witness, bool, error) {
	st, fresh, err := e.boundedStart(kind)
	if err != nil {
		return nil, false, err
	}
	st.kind = kind
	if fresh {
		if detail, ok := goal(&e.sc, st.frontier[0].cfg); ok {
			st.sink.discard()
			return e.witness(kind, detail, nil, st.stats)
		}
	}
	hit, err := e.runBounded(st, goal)
	if err != nil {
		return nil, false, err
	}
	return e.finishBounded(st, goal, kind, hit)
}

// finishBounded turns the end of a search's pass into its result: a pause
// when the pass was truncated, the exhaustive "none" otherwise, or the
// witness of hit.
func (e *Explorer) finishBounded(st *boundedState, goal goalFunc, kind string, hit *boundedHit) (*Witness, bool, error) {
	if hit == nil {
		if st.stats.Truncated {
			return e.pauseBounded(st, kind)
		}
		st.sink.discard()
		e.clearCheckpoint(kind)
		return &Witness{Kind: kind, Stats: st.stats}, false, nil
	}
	w, err := e.hitWitness(st.sink, goal, kind, hit, st.stats)
	st.sink.discard()
	if err != nil {
		return nil, false, err
	}
	e.clearCheckpoint(kind)
	return w, true, nil
}

// hitWitness reconstructs the witness of hit, which a pass logging into sink
// found with stats: read off the log when the sink retains it, by a bounded
// re-search for goal otherwise.
func (e *Explorer) hitWitness(sink levelSink, goal goalFunc, kind string, hit *boundedHit, stats Stats) (*Witness, error) {
	if hit.level > 0 && !sink.retained() {
		// Bounded re-search: the traversal is deterministic, so re-running
		// it with a recording sink reproduces the identical hit — this time
		// with the generation records needed to read the path off.
		st2, _, err := e.boundedFresh()
		if err != nil {
			return nil, err
		}
		st2.sink = &memSink{}
		st2.quiet = true
		hit2, err := e.runBounded(st2, goal)
		if err != nil {
			return nil, err
		}
		if hit2 == nil && st2.stats.Cancelled {
			// The witness re-search was cancelled before re-reaching the hit.
			// The original sink was discarded, so the witness is lost; report
			// the cancellation rather than a spurious divergence.
			return nil, fmt.Errorf("explore: search cancelled during witness re-search: %w", e.opts.Context.Err())
		}
		if hit2 == nil || *hit2 != *hit || st2.stats != stats {
			return nil, fmt.Errorf("explore: witness re-search diverged (hit %+v vs %+v); the search is not deterministic", hit2, hit)
		}
		sink = st2.sink
	}
	return e.boundedWitness(sink, hit, kind, stats)
}

// consensusFailurePass is FindConsensusFailure in one breadth-first pass: the
// disagreement search, whose pass also records where the blocking search
// would stop (see blockingRecord). When the disagreement search ends without
// a witness and uncancelled, the blocking search would have re-walked a
// prefix of the same pass, so its result — witness, Stats, pending pause and
// progress marks — is taken from the record instead.
func (e *Explorer) consensusFailurePass() (*Witness, bool, Stats, error) {
	st, _, err := e.boundedFresh()
	if err != nil {
		return nil, false, Stats{}, err
	}
	st.kind = "disagreement"
	root := st.frontier[0].cfg
	if detail, ok := disagreementGoal(&e.sc, root); ok {
		st.sink.discard()
		w, found, err := e.witness("disagreement", detail, nil, st.stats)
		return w, found, st.stats, err
	}
	b := &blockingRecord{}
	st.blocking = b
	if detail, ok := blockingGoal(&e.sc, root); ok {
		b.hit = &boundedHit{detail: detail}
	}
	hit, err := e.runBounded(st, disagreementGoal)
	if err != nil {
		return nil, false, Stats{}, err
	}
	first := st.stats
	if hit != nil || first.Cancelled {
		w, found, err := e.finishBounded(st, disagreementGoal, "disagreement", hit)
		return w, found, first, err
	}
	// The blocking search reports the levels it seals: those before its
	// hit's, or every level the pass sealed when it has none.
	for _, m := range b.marks {
		if b.hit != nil && m[1] >= b.hit.level {
			break
		}
		e.progress(m[0], m[1])
	}
	if b.hit == nil {
		// The blocking search ends exactly where the pass ended; a truncated
		// one leaves its own pause pending.
		st.kind = "blocking"
		w, found, err := e.finishBounded(st, blockingGoal, "blocking", nil)
		return w, found, first, err
	}
	if first.Truncated {
		// The disagreement search's pause stays pending, and the blocking
		// witness is read off its level log, which therefore stays alive.
		if _, _, err := e.pauseBounded(st, "disagreement"); err != nil {
			return nil, false, first, err
		}
	}
	w, err := e.hitWitness(st.sink, blockingGoal, "blocking", b.hit, b.stats)
	if !first.Truncated {
		st.sink.discard()
	}
	return w, err == nil, first, err
}

// snapshotLevel persists the search's paused state at a sealed level
// boundary when a checkpoint directory is configured: the crash-safety
// complement of the pause-time checkpoint of pauseBounded. A process killed
// without warning (kill -9, OOM, power loss) between two boundaries resumes
// from the last sealed level, so the kill costs at most one level of
// re-exploration plus the O(visited) log replay — and since resume is
// bit-exact, the eventual verdict is identical to an uninterrupted run's.
// Snapshots are best-effort: a write failure (disk full) latches snapErr and
// disables further attempts, but never fails the search itself — the final
// truncation pause, whose checkpoint callers rely on, still reports its own
// errors through pauseBounded. The degradation is surfaced rather than
// swallowed: Stats.SnapshotFailed marks the completed search and
// Options.OnSnapshotError fires as it happens.
func (e *Explorer) snapshotLevel(st *boundedState) {
	if e.opts.Checkpoint == "" || st.kind == "" || st.snapErr != nil || !st.sink.retained() {
		return
	}
	if err := writeCheckpoint(e.checkpointFile(st.kind), e.paused(st)); err != nil {
		// Latch the failure: later snapshots are skipped (the condition
		// that broke the disk rarely heals mid-search, and retrying every
		// level would stall it), and the degradation is surfaced — in
		// Stats for the final verdict, through OnSnapshotError right now —
		// instead of waiting for the next kill -9 to reveal it.
		st.snapErr = err
		st.stats.SnapshotFailed = true
		if e.opts.OnSnapshotError != nil {
			e.opts.OnSnapshotError(err)
		}
	}
}

// runBounded drives the breadth-first kernel from st until a goal hit, a
// census stop, exhaustion, or truncation (hit == nil; st.stats tells
// truncation apart). The serial loop expands one parent at a time; more
// than one worker, or a sharded explorer, runs the chunked parallel fan-out
// on expandLevel.
func (e *Explorer) runBounded(st *boundedState, goal goalFunc) (*boundedHit, error) {
	if e.searchWorkers() > 1 || e.shard != nil {
		return e.runBoundedParallel(st, goal)
	}
	for len(st.frontier) > 0 {
		if st.sink.levels() == st.level {
			if err := st.sink.beginLevel(); err != nil {
				return nil, err
			}
		}
		for st.pos < len(st.frontier) {
			if st.census.full() {
				return nil, nil
			}
			if st.stats.Visited >= e.opts.MaxConfigs {
				st.stats.Truncated = true
				return nil, nil
			}
			if st.stats.Visited%cancelInterval == 0 && e.cancelled() {
				// Cancellation takes the truncation path: the caller pauses
				// (and checkpoints) the search exactly as if the budget ran
				// out here, so a killed search resumes mid-level.
				st.stats.Truncated = true
				st.stats.Cancelled = true
				return nil, nil
			}
			parent := st.frontier[st.pos]
			st.stats.Visited++
			for _, act := range e.actions(parent.cfg, int(parent.crashes)) {
				if !e.sc.plan(parent.cfg, act) {
					continue
				}
				crashes := parent.crashes
				if act.Crash {
					crashes++
				}
				if !st.vis.Insert(e.key(&e.sc.succ, int(crashes))) {
					continue
				}
				next := e.sc.commit()
				if err := st.sink.append(levelRec{parent: int32(st.pos), act: act}); err != nil {
					return nil, err
				}
				if detail, ok := goal(&e.sc, next); ok {
					return &boundedHit{
						level:  st.level + 1,
						pos:    st.sink.levelLen(st.level) - 1,
						detail: detail,
					}, nil
				}
				st.blocking.note(&e.sc, st, next, st.stats.Visited)
				st.next = append(st.next, qent{cfg: next, crashes: crashes})
			}
			e.release(parent.cfg)
			st.pos++
		}
		e.sealLevel(st)
	}
	return nil, nil
}

// sealLevel makes the next level the frontier once the current one is fully
// expanded, and snapshots and reports the sealed boundary.
func (e *Explorer) sealLevel(st *boundedState) {
	st.frontier, st.next = st.next, nil
	st.pos = 0
	st.level++
	e.snapshotLevel(st)
	if st.blocking != nil {
		st.blocking.marks = append(st.blocking.marks, [2]int{st.stats.Visited, st.level})
	}
	if !st.quiet {
		e.progress(st.stats.Visited, st.level)
	}
}

// runBoundedParallel is runBounded on the chunked parallel fan-out: each
// chunk of parents expands on expandLevel and the sequential merge seals the
// winners in the serial loop's order. Chunk boundaries (a resumed search
// starts mid-level) cannot change results: candidate order keys are
// absolute frontier positions, and earlier chunks' children are sealed in
// the visited set before later chunks expand. On a sharded explorer each
// chunk expands only the participant's own parents, and the chunk's round
// (see shard.go) turns its winners into every participant's before the
// merge.
func (e *Explorer) runBoundedParallel(st *boundedState, goal goalFunc) (*boundedHit, error) {
	ws := e.workerCtxs(e.searchWorkers())
	ct := newClaimTable()
	if st.census != nil {
		// Workers evaluate goals speculatively; the census folds winners in
		// the merge instead, in sealing order.
		goal = nil
	}
	var winners []candidate
	for len(st.frontier) > 0 {
		if st.sink.levels() == st.level {
			if err := st.sink.beginLevel(); err != nil {
				return nil, err
			}
		}
		for st.pos < len(st.frontier) {
			if st.census.full() {
				return nil, nil
			}
			remaining := e.opts.MaxConfigs - st.stats.Visited
			if remaining <= 0 {
				st.stats.Truncated = true
				return nil, nil
			}
			limit := len(st.frontier) - st.pos
			if limit > remaining {
				limit = remaining
			}
			stop := e.cancelled()
			if !stop {
				e.expandLevel(ws, st.frontier, st.pos, st.pos+limit, st.vis, ct, goal)
			}
			winners = ct.take(winners)
			if e.shard != nil {
				var err error
				winners, stop, err = e.shard.exchange(ws[0], st.frontier, st.pos, st.pos+limit, winners, stop)
				if err != nil {
					return nil, err
				}
			}
			if stop {
				// As in runBounded: cancellation pauses via the truncation
				// path, at a chunk boundary here, before the chunk counts.
				st.stats.Truncated = true
				st.stats.Cancelled = true
				return nil, nil
			}
			last := st.pos - 1 // the last parent the serial loop has expanded
			for _, w := range winners {
				parent := int(w.ord >> ordShift)
				if parent > last {
					if st.census.full() {
						// The serial loop stops before expanding the next
						// parent; parents between last and this winner's
						// produced no winner, so the census cannot change
						// before them.
						st.stats.Visited += last + 1 - st.pos
						return nil, nil
					}
					last = parent
				}
				if !st.vis.Insert(w.key) {
					// A key that two participants of a sharded search both
					// reached from parents they own: the union is in ord
					// order, so the min-ord candidate was sealed and this one
					// is dropped. Unsharded this never happens: sealed keys
					// were dropped during expansion and duplicates within the
					// chunk resolved by the claim table.
					ws[0].release(w.cfg)
					continue
				}
				if err := st.sink.append(levelRec{parent: int32(parent), act: w.act}); err != nil {
					return nil, err
				}
				if w.goalOK {
					// The serial loop finds this witness while expanding the
					// winner's parent, having counted every parent up to and
					// including it.
					st.stats.Visited += parent + 1 - st.pos
					return &boundedHit{
						level:  st.level + 1,
						pos:    st.sink.levelLen(st.level) - 1,
						detail: w.detail,
					}, nil
				}
				if st.census != nil {
					collectDecisions(st.census.seen, w.cfg)
				}
				st.blocking.note(ws[0], st, w.cfg, st.stats.Visited+parent+1-st.pos)
				st.next = append(st.next, qent{cfg: w.cfg, crashes: w.crashes})
			}
			if last < st.pos+limit-1 && st.census.full() {
				st.stats.Visited += last + 1 - st.pos
				return nil, nil
			}
			st.stats.Visited += limit
			releaseLevel(ws, st.frontier, st.pos, st.pos+limit)
			st.pos += limit
		}
		e.sealLevel(st)
	}
	return nil, nil
}

// pauseBounded finalizes a truncated bounded search: with a retained sink
// the paused state stays pending on the explorer (resumable in-session and
// snapshottable), and with a checkpoint directory configured it is
// persisted immediately; the frontier configurations — regenerable from the
// logs — are recycled either way.
func (e *Explorer) pauseBounded(st *boundedState, kind string) (*Witness, bool, error) {
	w := &Witness{Kind: kind, Stats: st.stats}
	if st.sink.retained() {
		p := e.paused(st)
		if e.opts.Checkpoint != "" {
			path := e.checkpointFile(kind)
			if err := writeCheckpoint(path, p); err != nil {
				return nil, false, err
			}
			w.Checkpoint = path
		}
		// Replacing a previously pending paused search drops its level log;
		// release that log's resources rather than stranding them (its state
		// was persisted at its own pause when checkpointing is configured).
		if e.pending != nil {
			e.pending.sink.discard()
		}
		e.pending = p
	} else {
		st.sink.discard()
	}
	for i := st.pos; i < len(st.frontier); i++ {
		e.sc.release(st.frontier[i].cfg)
	}
	for i := range st.next {
		e.sc.release(st.next[i].cfg)
	}
	return w, false, nil
}

// paused reduces a search with a retained level log to its regenerable core.
func (e *Explorer) paused(st *boundedState) *pausedSearch {
	return &pausedSearch{
		kind:    st.kind,
		digest:  e.searchDigest(st.kind),
		sink:    st.sink,
		level:   st.level,
		pos:     st.pos,
		visited: st.stats.Visited,
	}
}

// boundedWitness reconstructs the action path to a hit from the retained
// level logs — a backward walk reading one record per level — and replays
// it into a recorded run.
func (e *Explorer) boundedWitness(sink levelSink, hit *boundedHit, kind string, stats Stats) (*Witness, error) {
	acts := make([]action, hit.level)
	pos := hit.pos
	for l := hit.level; l >= 1; l-- {
		rec, err := sink.record(l-1, pos)
		if err != nil {
			return nil, err
		}
		acts[l-1] = rec.act
		pos = int(rec.parent)
	}
	w, _, err := e.witness(kind, hit.detail, acts, stats)
	return w, err
}

// witness replays acts into a found witness.
func (e *Explorer) witness(kind, detail string, acts []action, stats Stats) (*Witness, bool, error) {
	run, err := e.replayActions(acts)
	if err != nil {
		return nil, false, err
	}
	return &Witness{Kind: kind, Run: run, Detail: detail, Stats: stats}, true, nil
}

// searchBoundedDFS is the depth-first witness search at every store:
// revisit detection on the compact visited set, and witness paths kept as
// immutable cons-list paths hanging off the stack, so memory is bounded by
// the visited keys plus the live stack — abandoned branches are
// garbage-collected. Checkpointing is a BFS feature: a DFS pause would have
// to persist the entire stack of full configurations.
func (e *Explorer) searchBoundedDFS(goal goalFunc, kind string) (*Witness, bool, error) {
	if e.opts.Checkpoint != "" {
		return nil, false, fmt.Errorf("explore: checkpointing requires the breadth-first strategy")
	}
	start, err := e.initial()
	if err != nil {
		return nil, false, err
	}
	stats := Stats{}
	if detail, ok := goal(&e.sc, start); ok {
		return e.witness(kind, detail, nil, stats)
	}
	type pathNode struct {
		parent *pathNode
		act    action
	}
	type dent struct {
		cfg     *sim.Configuration
		path    *pathNode
		crashes int32
	}
	vis := e.newVisited()
	vis.Insert(e.key(start, 0))
	stack := []dent{{cfg: start}}
	for len(stack) > 0 {
		if stats.Visited >= e.opts.MaxConfigs {
			stats.Truncated = true
			return &Witness{Kind: kind, Stats: stats}, false, nil
		}
		if stats.Visited%cancelInterval == 0 && e.cancelled() {
			// DFS has no pause path; a cancelled DFS just stops (truncated,
			// not resumable).
			stats.Truncated = true
			stats.Cancelled = true
			return &Witness{Kind: kind, Stats: stats}, false, nil
		}
		if stats.Visited > 0 && stats.Visited%progressInterval == 0 {
			e.progress(stats.Visited, -1)
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stats.Visited++
		for _, act := range e.actions(cur.cfg, int(cur.crashes)) {
			if !e.sc.plan(cur.cfg, act) {
				continue
			}
			crashes := cur.crashes
			if act.Crash {
				crashes++
			}
			if !vis.Insert(e.key(&e.sc.succ, int(crashes))) {
				continue
			}
			next := e.sc.commit()
			node := &pathNode{parent: cur.path, act: act}
			if detail, ok := goal(&e.sc, next); ok {
				var acts []action
				for n := node; n != nil; n = n.parent {
					acts = append(acts, n.act)
				}
				for i, j := 0, len(acts)-1; i < j; i, j = i+1, j-1 {
					acts[i], acts[j] = acts[j], acts[i]
				}
				return e.witness(kind, detail, acts, stats)
			}
			stack = append(stack, dent{cfg: next, path: node, crashes: crashes})
		}
		e.release(cur.cfg)
	}
	return &Witness{Kind: kind, Stats: stats}, false, nil
}
