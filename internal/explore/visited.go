package explore

// This file implements the compact visited set shared by every search
// engine in the package: a two-level, open-addressed hash set of 64-bit
// revisit keys. The first level is a fixed fan-out of 256 shards indexed by
// the key's top byte; the second level is a per-shard open-addressed,
// linear-probed slot array of raw keys, grown shard-locally at 3/4 load.
//
// The set replaces a former map[uint64]int32 visited map: no search path
// ever read the mapped node index (revisit detection is pure membership),
// and a Go map burns ~50 B per uint64 entry in buckets, overflow pointers,
// and load slack. Here a sealed key costs one uint64 slot — between 10.7 B
// (just after a shard doubles) and 16 B (just before) per state — which is
// what makes the frontier-only store of bounded.go genuinely frontier-sized.
//
// Keys are splitmix64-diffused upstream (Explorer.key applies sim.HashMix),
// so the top byte shards uniformly and the low bits probe uniformly; the two
// bit ranges are disjoint, keeping shard choice and in-shard position
// independent. Shard growth rehashes one shard at a time, bounding the
// latency and the transient memory of any single insert to 1/256th of the
// table. The zero key — possible, though vanishingly unlikely, for a
// diffused fingerprint — is tracked by a dedicated flag because empty slots
// are encoded as zero.
//
// The set is not safe for concurrent writers. The kernel's parallel fan-out
// needs no locks around it: during level expansion workers only read
// (sealed keys are immutable for the level), and all inserts happen in the
// sequential merge phase.

// visShards is the first-level fan-out. 256 keeps the per-shard slot arrays
// small enough that doubling one is cheap, while the fixed top-byte split
// adds no per-key memory.
const visShards = 256

// visitedSet is the two-level sharded visited-key set.
type visitedSet struct {
	shards [visShards]visShard
	// zero tracks membership of the zero key, which cannot live in the slot
	// arrays (zero encodes an empty slot).
	zero bool
	n    int
}

// visShard is one second-level open-addressed table.
type visShard struct {
	slots []uint64
	used  int
}

func newVisitedSet() *visitedSet { return &visitedSet{} }

// Len returns the number of distinct keys inserted.
func (v *visitedSet) Len() int { return v.n }

// Contains reports whether key was inserted.
func (v *visitedSet) Contains(key uint64) bool {
	if key == 0 {
		return v.zero
	}
	s := &v.shards[key>>56]
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return true
		case 0:
			return false
		}
	}
}

// Insert adds key to the set, reporting whether it was fresh. It is the
// single mutation point: every search engine claims a configuration by
// Insert and drops it on false, so insertion order fully determines the
// visited semantics.
func (v *visitedSet) Insert(key uint64) bool {
	if key == 0 {
		if v.zero {
			return false
		}
		v.zero = true
		v.n++
		return true
	}
	s := &v.shards[key>>56]
	// Grow before probing at 3/4 load so the probe below always finds an
	// empty slot and chains stay short.
	if 4*(s.used+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			s.used++
			v.n++
			return true
		}
	}
}

// Range calls f for every key in the set (in unspecified order) until f
// returns false. Test and snapshot plumbing only; not on any hot path.
func (v *visitedSet) Range(f func(key uint64) bool) {
	if v.zero && !f(0) {
		return
	}
	for si := range v.shards {
		for _, k := range v.shards[si].slots {
			if k != 0 && !f(k) {
				return
			}
		}
	}
}

// grow doubles the shard's slot array (first allocation: 64 slots) and
// rehashes its keys.
func (s *visShard) grow() {
	ncap := 64
	if len(s.slots) > 0 {
		ncap = 2 * len(s.slots)
	}
	old := s.slots
	s.slots = make([]uint64, ncap)
	mask := uint64(ncap - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		for i := k & mask; ; i = (i + 1) & mask {
			if s.slots[i] == 0 {
				s.slots[i] = k
				break
			}
		}
	}
}
