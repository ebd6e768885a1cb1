package explore

// This file implements the chunked fan-out of the breadth-first kernel
// (runBoundedParallel in bounded.go), active when Options.Workers resolves
// to more than one and on every participant of a sharded search, which
// expands only the parents it owns and exchanges the chunk's winners with
// the other participants before the merge (see shard.go).
//
// Each chunk of a BFS level is processed in two phases.
//
//  1. Expansion (parallel). Workers claim frontier positions from an atomic
//     counter and expand them with their own searchCtx — private clone free
//     list, delivery scratch, action buffer, quiescence probe — so the hot
//     clone/step/hash cycle runs without shared mutable state. Candidates
//     whose fingerprint key was sealed in an earlier level are dropped
//     against the visited set, which is immutable while workers run and
//     therefore read lock-free. Surviving candidates enter a 64-way sharded
//     claim table keyed by fingerprint: per-shard mutexes arbitrate
//     concurrent claims, and a claim is replaced when a candidate with a
//     smaller deterministic order (parent position, action index) arrives,
//     so each key's surviving candidate is the one the sequential loop
//     would have kept — independent of goroutine interleaving. Losers are
//     recycled into the claiming worker's free list immediately.
//
//  2. Merge (sequential). The claim-table winners are drained, sorted by
//     their deterministic order, and sealed in exactly the order the
//     sequential loop would have inserted them: their keys enter the
//     visited set, their generation records the level log, and the next
//     frontier comes out in identical order. Goal hits short-circuit the
//     merge at the first winner in order, the per-parent gates of the
//     sequential loop (a valence census's stop) are re-checked in parent
//     order, and Stats.Visited is reconstructed from the parent position,
//     so witness, stats, and truncation behaviour are bit-identical to the
//     sequential loop's. The kernel golden table pins exactly this.
//
// The only intentional divergence is wasted speculative work: a chunk is
// expanded before the gates that the sequential loop applies per parent,
// so a chunk's tail may be explored and discarded. Results are unaffected.

import (
	"sort"
	"sync"
	"sync/atomic"

	"kset/internal/sim"
)

// ordShift packs a candidate's deterministic order as
// parentPosition<<ordShift | actionIndex. A parent's action enumeration is
// far smaller than 2^20 entries, and level positions stay far below 2^44.
const ordShift = 20

// candidate is one successor configuration produced during level expansion,
// carrying everything the merge phase needs to finish the sequential
// search's bookkeeping for it.
type candidate struct {
	cfg     *sim.Configuration
	key     uint64
	ord     uint64
	crashes int32
	act     action
	goalOK  bool
	detail  string
}

// claimShards is the number of claim-table shards. Fingerprint keys are
// splitmix64-diffused, so the low bits index uniformly.
const claimShards = 64

// claimShard holds the pending within-level claims whose keys fall into the
// shard, guarded by the shard mutex.
type claimShard struct {
	mu sync.Mutex
	m  map[uint64]candidate
}

// claimTable is the sharded within-level claim table. Claims are written
// concurrently during expansion and drained sequentially during the merge.
type claimTable struct {
	shards [claimShards]claimShard
}

func newClaimTable() *claimTable {
	ct := &claimTable{}
	for i := range ct.shards {
		ct.shards[i].m = make(map[uint64]candidate, 64)
	}
	return ct
}

// claim records cand as the pending winner for its key unless a
// smaller-order candidate already holds the slot. It returns the
// configuration the caller should recycle: cand's own on loss, the evicted
// claimant's on replacement, nil when cand took an empty slot. Candidates
// for one key are behaviourally identical configurations (equal fingerprint
// keys), so replacement only re-parents the node — goal results carry over.
func (ct *claimTable) claim(cand candidate) *sim.Configuration {
	s := &ct.shards[cand.key%claimShards]
	s.mu.Lock()
	prev, ok := s.m[cand.key]
	if !ok || cand.ord < prev.ord {
		s.m[cand.key] = cand
		s.mu.Unlock()
		if !ok {
			return nil
		}
		return prev.cfg
	}
	s.mu.Unlock()
	return cand.cfg
}

// take drains every pending claim into buf (reused across levels) sorted by
// deterministic order — the exact insertion order of the sequential search.
func (ct *claimTable) take(buf []candidate) []candidate {
	buf = buf[:0]
	for i := range ct.shards {
		for _, c := range ct.shards[i].m {
			buf = append(buf, c)
		}
		clear(ct.shards[i].m)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].ord < buf[j].ord })
	return buf
}

// workerCtxs returns n search contexts for one parallel search. The first is
// the explorer's own, so its free list keeps warming across consecutive
// searches on the same Explorer, exactly as in the sequential path.
func (e *Explorer) workerCtxs(n int) []*searchCtx {
	ws := make([]*searchCtx, n)
	ws[0] = &e.sc
	for i := 1; i < n; i++ {
		ws[i] = &searchCtx{e: e}
	}
	return ws
}

// expandLevel expands frontier[lo:hi] across the worker contexts, leaving
// the deterministic winners in the claim table. Candidate order keys use the
// absolute frontier position, so expanding a level in several chunks (the
// bounded engine resumes mid-level after a checkpoint) yields the same
// winners as one pass. vis is the sealed visited set — immutable while
// workers run, hence read lock-free. goal, when non-nil, is evaluated on
// every candidate that survives the sealed-visited check, in parallel, so
// the merge only inspects the precomputed flag. A sharded explorer skips
// the parents it does not own.
func (e *Explorer) expandLevel(ws []*searchCtx, frontier []qent, lo, hi int, vis *visitedSet, ct *claimTable, goal goalFunc) {
	shard := e.shard
	workers := len(ws)
	if workers > hi-lo {
		workers = hi - lo
	}
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sc *searchCtx) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				parent := frontier[i]
				if shard != nil && ShardOwner(sc.e.key(parent.cfg, int(parent.crashes)), shard.count) != shard.index {
					continue
				}
				for ai, act := range sc.actions(parent.cfg, int(parent.crashes)) {
					cfg, ok := sc.apply(parent.cfg, act)
					if !ok {
						continue
					}
					crashes := parent.crashes
					if act.Crash {
						crashes++
					}
					cand := candidate{
						cfg:     cfg,
						key:     sc.e.key(cfg, int(crashes)),
						ord:     uint64(i)<<ordShift | uint64(ai),
						crashes: crashes,
						act:     act,
					}
					if vis.Contains(cand.key) {
						sc.release(cfg)
						continue
					}
					if goal != nil {
						cand.detail, cand.goalOK = goal(sc, cfg)
					}
					if dup := ct.claim(cand); dup != nil {
						sc.release(dup)
					}
				}
			}
		}(ws[w])
	}
	wg.Wait()
}

// releaseLevel recycles the expanded parents frontier[lo:hi] across the
// worker free lists.
func releaseLevel(ws []*searchCtx, frontier []qent, lo, hi int) {
	for i := lo; i < hi; i++ {
		ws[i%len(ws)].release(frontier[i].cfg)
	}
}
