package explore

// Sharded exploration: one breadth-first search run by N participants.
//
// A sharded search is the kernel's chunked fan-out (runBoundedParallel on
// expandLevel) run N times over, once per participant, with the copies
// joined by one all-gather round per chunk. Every participant holds the
// whole search state — frontier configurations, visited set and level log
// — and the copies differ only in which frontier positions they expand:
// participant i expands the parents whose key it owns
// (ShardOwner(key, N) == i). Per chunk each participant
//
//  1. expands its own parents of the chunk over Options.Workers goroutines
//     into its claim table, exactly as the in-process fan-out does;
//  2. posts the table's winners, deduplicated locally and sorted by ord,
//     with its stop bit to the chunk's round, and receives every
//     participant's list;
//  3. rebuilds each remote winner by applying the winner's generation
//     record to its own copy of the parent, checking the result against
//     the announced key; and
//  4. merges the union in ord order through the fan-out's merge, whose
//     visited-set insert keeps the min-ord candidate of a key that two
//     participants both produced.
//
// Every participant merges the same union into the same state, so all of
// them make the same budget, goal-hit, truncation and level-seal decisions
// and nothing but the round travels between them. Cancellation is the stop
// bit: each participant posts whether its Options.Context is cancelled,
// and a set bit ends the search at that chunk on every participant, with
// the Stats the in-process fan-out reports when it sees cancellation there.
// Order keys are absolute frontier positions and every position has one
// owner, so the merged order is the serial loop's insertion order: results
// are bit-identical to the plain search at any participant count, and one
// participant is the plain fan-out plus a round trip.
//
// The exchange is transport-agnostic: LocalShardHub is the all-gather
// barrier in process (goroutine participants, tests and experiment E15),
// and internal/service serves the same hub over localhost HTTP to worker
// processes, with the round message of shardcodec.go.

import (
	"fmt"
	"sort"
	"sync"
)

// ShardOwner maps a fingerprint key to its owning shard: the fixed-point
// product floor(top32(key) · shards / 2^32). Every key has exactly one
// owner in [0, shards) at any shard count, ownership is consistent (a
// function of the key alone), and keys spread evenly because fingerprints
// are splitmix-diffused. shards must be >= 1; one shard owns everything.
func ShardOwner(key uint64, shards int) int {
	return int((key >> 32) * uint64(shards) >> 32)
}

// ShardCandidate is one chunk winner of a participant as posted to a
// round. Key is its visited key, Ord its order key parentPos<<ordShift |
// actionIndex, Bits its packed generation record (parent position and
// action, see recBits), and Goal and Detail the witness predicate's result
// on it.
type ShardCandidate struct {
	Key    uint64
	Ord    uint64
	Bits   uint64
	Goal   bool
	Detail string
}

// ShardExchange is a participant's handle on the all-gather rounds of a
// sharded search.
type ShardExchange interface {
	// Exchange posts this participant's candidates and stop bit for round
	// and blocks until every participant has posted it, returning every
	// participant's list, indexed by participant, and whether any
	// participant set its stop bit.
	Exchange(round int, cands []ShardCandidate, stop bool) (lists [][]ShardCandidate, anyStop bool, err error)
}

// shardRole is an explorer's part in a sharded search; see Shard.
type shardRole struct {
	index, count int
	ex           ShardExchange
	round        int // the next round this participant posts
}

// Shard makes the explorer participant shard of shards in a sharded search
// over ex: its breadth-first witness searches expand only the parents the
// participant owns and join the other participants' expansions with one
// round per chunk, returning the plain search's results. Every participant
// must run the same searches, in the same order, on an identically
// configured explorer, and a participant whose search fails must fail the
// exchange so the others unblock. Only participant 0 reports progress.
// Checkpoints and depth-first searches are rejected, and valence censuses
// do not run on a sharded explorer.
func (e *Explorer) Shard(shard, shards int, ex ShardExchange) error {
	switch {
	case shards < 1:
		return fmt.Errorf("explore: shard count %d out of range", shards)
	case shard < 0 || shard >= shards:
		return fmt.Errorf("explore: shard index %d out of range [0,%d)", shard, shards)
	case e.opts.Strategy == "dfs":
		return fmt.Errorf("explore: sharded search requires the BFS strategy")
	case e.opts.Checkpoint != "":
		return fmt.Errorf("explore: sharded search does not support Options.Checkpoint")
	}
	if shard != 0 {
		e.opts.OnProgress = nil
	}
	e.shard = &shardRole{index: shard, count: shards, ex: ex}
	return nil
}

// exchange runs the round of the chunk frontier[lo:hi]: it posts this
// participant's winners (sorted by ord) with its stop bit and returns the
// union of every participant's winners, remote ones rebuilt on sc, in ord
// order. When any participant set its stop bit it returns stop and no
// winners.
func (r *shardRole) exchange(sc *searchCtx, frontier []qent, lo, hi int, winners []candidate, stop bool) ([]candidate, bool, error) {
	cands := make([]ShardCandidate, len(winners))
	for i, w := range winners {
		rec := levelRec{parent: int32(w.ord >> ordShift), act: w.act}
		cands[i] = ShardCandidate{Key: w.key, Ord: w.ord, Bits: recBits(rec), Goal: w.goalOK, Detail: w.detail}
	}
	round := r.round
	r.round++
	lists, stop, err := r.ex.Exchange(round, cands, stop)
	if err != nil || stop {
		return winners[:0], stop, err
	}
	if len(lists) != r.count {
		return nil, false, fmt.Errorf("explore: round %d gathered %d lists for %d participants", round, len(lists), r.count)
	}
	for i, list := range lists {
		if i == r.index {
			continue
		}
		for _, c := range list {
			w, err := rebuild(sc, frontier, lo, hi, c)
			if err != nil {
				return nil, false, fmt.Errorf("explore: round %d participant %d: %w", round, i, err)
			}
			winners = append(winners, w)
		}
	}
	sort.Slice(winners, func(i, j int) bool { return winners[i].ord < winners[j].ord })
	return winners, false, nil
}

// rebuild turns a remote participant's winner into a local candidate by
// applying its generation record to this participant's copy of the parent.
// The winner comes from another process, so it is checked: its parent lies
// in the chunk frontier[lo:hi], its record and its order key name the same
// parent, its action applies, and the result has the announced key.
func rebuild(sc *searchCtx, frontier []qent, lo, hi int, c ShardCandidate) (candidate, error) {
	rec := recFromBits(c.Bits)
	pos := c.Ord >> ordShift
	if pos < uint64(lo) || pos >= uint64(hi) || uint64(rec.parent) != pos {
		return candidate{}, fmt.Errorf("candidate %#x: order key names parent %d, record %d, chunk [%d,%d)", c.Key, pos, rec.parent, lo, hi)
	}
	parent := frontier[pos]
	cfg, ok := sc.apply(parent.cfg, rec.act)
	if !ok {
		return candidate{}, fmt.Errorf("candidate %#x: action not applicable to parent %d", c.Key, pos)
	}
	crashes := parent.crashes
	if rec.act.Crash {
		crashes++
	}
	w := candidate{cfg: cfg, key: sc.e.key(cfg, int(crashes)), ord: c.Ord, crashes: crashes, act: rec.act, goalOK: c.Goal, detail: c.Detail}
	if w.key != c.Key {
		sc.release(cfg)
		return candidate{}, fmt.Errorf("candidate %#x rebuilds to key %#x", c.Key, w.key)
	}
	return w, nil
}

// LocalShardHub is the all-gather barrier of a sharded search. Participant
// hands goroutine participants a blocking ShardExchange, and the HTTP
// transport of internal/service maps its handlers onto the non-blocking
// Post and Try (ksetd's write timeouts forbid handlers that park). A
// round's state lives from its first post until every participant has
// posted the next round, which proves each has read it.
type LocalShardHub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	shards int
	err    error
	rounds map[int]*hubRound
}

// hubRound is the state of one all-gather round.
type hubRound struct {
	lists  [][]ShardCandidate
	posted []bool
	n      int
	stop   bool
}

// NewLocalShardHub creates the barrier of a search with the given number
// of participants.
func NewLocalShardHub(shards int) *LocalShardHub {
	h := &LocalShardHub{shards: shards, rounds: make(map[int]*hubRound)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Fail poisons the hub: every pending and later call returns err (the
// first one, if Fail is called again), so no participant blocks forever
// after another fails.
func (h *LocalShardHub) Fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failLocked(err)
}

func (h *LocalShardHub) failLocked(err error) error {
	if h.err == nil {
		h.err = err
	}
	h.cond.Broadcast()
	return h.err
}

// Post records participant shard's candidates and stop bit for round. A
// participant index out of range or a second post of the same round fails
// the hub.
func (h *LocalShardHub) Post(round, shard int, cands []ShardCandidate, stop bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return h.err
	}
	if shard < 0 || shard >= h.shards {
		return h.failLocked(fmt.Errorf("explore: shard index %d out of range [0,%d)", shard, h.shards))
	}
	r := h.rounds[round]
	if r == nil {
		r = &hubRound{lists: make([][]ShardCandidate, h.shards), posted: make([]bool, h.shards)}
		h.rounds[round] = r
	}
	if r.posted[shard] {
		return h.failLocked(fmt.Errorf("explore: shard %d posted round %d twice", shard, round))
	}
	r.posted[shard] = true
	r.lists[shard] = cands
	r.stop = r.stop || stop
	r.n++
	if r.n == h.shards {
		delete(h.rounds, round-1)
		h.cond.Broadcast()
	}
	return nil
}

// Try returns round's lists and the OR of its stop bits once every
// participant has posted it; ok is false until then. It creates no state.
func (h *LocalShardHub) Try(round int) (lists [][]ShardCandidate, stop, ok bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tryLocked(round)
}

func (h *LocalShardHub) tryLocked(round int) ([][]ShardCandidate, bool, bool, error) {
	if h.err != nil {
		return nil, false, false, h.err
	}
	r := h.rounds[round]
	if r == nil || r.n < h.shards {
		return nil, false, false, nil
	}
	return r.lists, r.stop, true, nil
}

// Participant returns the blocking exchange handle of participant shard.
func (h *LocalShardHub) Participant(shard int) ShardExchange {
	return hubParticipant{h: h, shard: shard}
}

type hubParticipant struct {
	h     *LocalShardHub
	shard int
}

// Exchange implements ShardExchange: Post, then wait for the round.
func (p hubParticipant) Exchange(round int, cands []ShardCandidate, stop bool) ([][]ShardCandidate, bool, error) {
	h := p.h
	if err := h.Post(round, p.shard, cands, stop); err != nil {
		return nil, false, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		lists, stop, ok, err := h.tryLocked(round)
		if ok || err != nil {
			return lists, stop, err
		}
		h.cond.Wait()
	}
}
