package sim

// This file implements the incremental 64-bit configuration fingerprint used
// by package explore for revisit detection. The fingerprint is a commutative
// sum (mod 2^64) of independently hashed components — one per process slot
// (state, crash flag, decision) and one per buffered message — so that
// Apply, take, and SilentCrash can maintain it in O(changed) instead of
// rebuilding Key()'s O(n·|buffers|) string on every visit:
//
//	fp = Σ_i procComponent(i) + Σ_i Σ_{m ∈ buffer(i)} msgComponent(i, m)
//
// Each component is an FNV-1a hash of the slot's deterministic encoding,
// diffused through a splitmix64 finalizer and multiplied by an odd
// per-process salt so that equal content at different slots contributes
// different values. Summation (rather than XOR) makes buffers true
// multisets: a message that is buffered twice shifts the fingerprint twice.
//
// The fingerprint covers exactly the information Key() encodes — local
// states, crash flags, buffer contents as per-receiver multisets of
// (sender, payload), plus the write-once decisions — and, like Key(),
// excludes global time and message ids, which do not influence future
// behaviour. Two configurations with equal Key() always have equal
// fingerprints; distinct keys collide with probability ~2^-64 per pair.

// FingerprintVersion identifies the fingerprint encoding: the FNV/splitmix
// construction above, the per-slot salts, and the Hash64/SymHash64
// encodings of every algorithm's states and payloads. The encoding is
// deliberately stable across processes and runs — it uses no per-process
// hash seed, no map iteration order, and no addresses — which is what lets
// package explore persist fingerprint-derived artifacts (search
// checkpoints, whose deduplication decisions are only valid under the key
// function that made them) and read them back in a different process. Bump
// this constant whenever the encoding changes observably — a changed
// constant, salt, fold order, or any algorithm's Hash64 — so stale on-disk
// state is rejected instead of silently resumed under a different state
// quotient; internal/sim's stability test pins the v1 values.
const FingerprintVersion = 1

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds s into an FNV-1a hash state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvUint folds an integer into an FNV-1a hash state byte by byte.
func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap
// full-avalanche diffusion of the raw FNV state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hasher64 is an optional fast-hash interface for State and Payload
// implementations. Hash64 must be equality-compatible with Key: two values
// with equal keys must return equal hashes, and values with distinct keys
// must return distinct hashes up to 64-bit collision probability. States and
// payloads that implement it skip the Key() string materialization on the
// fingerprint hot path; everything else falls back to hashing Key().
type Hasher64 interface {
	Hash64() uint64
}

// HashSeed returns the initial accumulator for building a Hash64 value.
func HashSeed() uint64 { return fnvOffset64 }

// HashUint folds an integer into a Hash64 accumulator.
func HashUint(h, v uint64) uint64 { return fnvUint(h, v) }

// HashString folds a string into a Hash64 accumulator.
func HashString(h uint64, s string) uint64 { return fnvString(h, s) }

// HashMix diffuses an accumulator or builds one commutative-sum term; use it
// to hash map entries order-independently (sum the mixed terms).
func HashMix(x uint64) uint64 { return splitmix64(x) }

// stateHash returns the 64-bit hash of a state: the fast path for Hasher64
// implementations, an FNV-1a over Key() otherwise.
func stateHash(s State) uint64 {
	if h, ok := s.(Hasher64); ok {
		return h.Hash64()
	}
	return fnvString(fnvOffset64, s.Key())
}

// payloadHash is stateHash for message payloads.
func payloadHash(p Payload) uint64 {
	if h, ok := p.(Hasher64); ok {
		return h.Hash64()
	}
	return fnvString(fnvOffset64, p.Key())
}

// procSalt returns the odd multiplier salting process slot i's state
// component; bufSalt the one salting its buffered-message components.
func procSalt(i int) uint64 { return splitmix64(uint64(i)*2+1) | 1 }
func bufSalt(i int) uint64  { return splitmix64(uint64(i)*2+2) | 1 }

// stateHash64 returns slot i's state hash on either engine: the packer's
// record hash on the packed engine, stateHash of the pointer state
// otherwise. The packer hash contract (see Packer) makes the two
// bit-identical.
func (c *Configuration) stateHash64(i int) uint64 {
	if c.pk != nil {
		return c.pk.Hash64(c.prec(i), i)
	}
	return stateHash(c.states[i])
}

// procComponent hashes process slot i's behaviourally relevant content:
// crash flag, state key, and write-once decision.
func (c *Configuration) procComponent(i int) uint64 {
	return procComponentOf(i, c.crashed[i], c.stateHash64(i), c.decisions[i], c.faultCount(i))
}

// procComponentOf is procComponent over explicit slot content, so a planned
// step (see Successor) can hash the slot it would write.
func procComponentOf(i int, crashed bool, stateHash uint64, decision Value, faults int32) uint64 {
	h := uint64(fnvOffset64)
	if crashed {
		h = crashedSeed
	}
	h = fnvUint(h, stateHash)
	h = fnvUint(h, uint64(decision))
	if faults != 0 {
		// Spent fault budget distinguishes otherwise-identical
		// configurations with different adversarial futures. Guarded so a
		// crash-only run's components stay bit-identical to the pre-fault
		// engine.
		h = fnvUint(h, uint64(faults))
	}
	return splitmix64(h) * procSalt(i)
}

// msgComponent hashes one message buffered at receiver slot recv. The
// receiver is encoded by the salt; the id and send time are excluded for the
// same reason Message.Key excludes them.
func msgComponent(recv int, m *Message) uint64 {
	h := uint64(fnvOffset64)
	h = fnvUint(h, uint64(m.From))
	h = fnvUint(h, payloadHash(m.Payload))
	return splitmix64(h) * bufSalt(recv)
}

// Fingerprint returns the incremental 64-bit fingerprint of the
// configuration. It is maintained by NewConfiguration, Apply, Clone, and
// Successor.Commit; reading it is free.
func (c *Configuration) Fingerprint() uint64 { return c.fp }

// recomputeFingerprint rebuilds the fingerprint and per-slot caches from
// scratch. NewConfiguration uses it once; the fingerprint tests use it to
// cross-check the incremental maintenance.
func (c *Configuration) recomputeFingerprint() {
	if cap(c.procFP) < c.n {
		c.procFP = make([]uint64, c.n)
	}
	c.procFP = c.procFP[:c.n]
	c.fp = 0
	for i := 0; i < c.n; i++ {
		c.procFP[i] = c.procComponent(i)
		c.fp += c.procFP[i]
		if c.pk != nil {
			for j := range c.pbuf[i] {
				m := &c.pbuf[i][j]
				m.fp = c.packedMsgComponent(i, *m)
				c.fp += m.fp
			}
			continue
		}
		for j := range c.buffers[i] {
			m := &c.buffers[i][j]
			m.fp = msgComponent(i, m)
			c.fp += m.fp
		}
	}
}

// LiveFingerprint returns the fingerprint of the configuration's
// behaviourally live content: crashed processes contribute only their crash
// flag and write-once decision — their local state and their undelivered
// buffered messages are excluded. A crashed process never steps again, so
// nothing else in its slot can influence any future step, send, delivery
// resolution, or verdict predicate; two configurations with equal
// LiveFingerprint have identical futures even when their crashed slots
// differ. Package explore's partial-order-reduced searches key their
// visited sets by it, collapsing the crash-timing junk states the plain
// fingerprint keeps apart (same crash, same decision, different absorbed
// values or different undelivered leftovers). Computed on demand in
// O(n + crashed buffers) from the cached per-slot components.
func (c *Configuration) LiveFingerprint() uint64 { return c.liveFingerprint(c.fp, nil) }

// liveFingerprint projects the plain fingerprint fp of c, or of the
// successor s plans from c when s is non-nil, onto its live content.
func (c *Configuration) liveFingerprint(fp uint64, s *Successor) uint64 {
	for i := 0; i < c.n; i++ {
		crashed, decision, proc := c.crashed[i], c.decisions[i], c.procFP[i]
		if s != nil && i == s.i {
			crashed, decision, proc = s.crashed, s.decision, s.procFP
		}
		if !crashed {
			continue
		}
		fp += crashedSlotComponent(i, decision) - proc
		if s != nil {
			fp -= s.bufDelta(i, false)
		}
		if c.pk != nil {
			for j := range c.pbuf[i] {
				fp -= c.pbuf[i][j].fp
			}
			continue
		}
		for j := range c.buffers[i] {
			fp -= c.buffers[i][j].fp
		}
	}
	return fp
}

// crashedSlotComponent is the normalized component of a crashed process
// slot: crash flag and decision only (compare procComponent).
func crashedSlotComponent(i int, decision Value) uint64 {
	return splitmix64(fnvUint(crashedSeed, uint64(decision))) * procSalt(i)
}

// crashedSeed is the FNV state after a slot's crash flag.
var crashedSeed = fnvUint(fnvOffset64, 1)

// refreshProc re-hashes process slot i after its state, crash flag, or
// decision changed, and folds the delta into the fingerprint (and into the
// orbit-canonical fingerprint when a Symmetry is attached).
func (c *Configuration) refreshProc(i int) {
	h := c.procComponent(i)
	c.fp += h - c.procFP[i]
	c.procFP[i] = h
	if c.sym != nil {
		c.symRefreshBase(i)
	}
}
