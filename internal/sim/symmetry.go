package sim

// This file implements the orbit-canonical configuration fingerprint behind
// package explore's symmetry reduction. The impossibility arguments of the
// paper are symmetric in process identities: a partition or
// indistinguishability argument never depends on WHICH processes form a
// group, only on the group's size, inputs, and crash pattern. Exploration
// can therefore identify configurations that are process-renamings of each
// other — provided the renaming preserves everything the search fixed up
// front: the proposal assignment and the live set. The permutations with
// that property form the stabilizer of the initial input assignment, and
// Canonical64 is a fingerprint that is invariant under exactly those
// renamings:
//
//	sig(p)      = mix(class(p), crashed(p), decision(p), symStateHash(p)
//	                  + Σ_{m ∈ buffer(p)} mix(class(m.From), symPayloadHash(m)))
//	Canonical64 = Σ_p mix(sig(p))
//
// Process identities appear only through their input class (class(p) = the
// equivalence class of processes with p's proposal and liveness), both in
// the per-process slot (the outer sum is unsalted, so slots of the same
// class are interchangeable) and inside states and payloads (states opt in
// via SymHasher64, hashing embedded process ids through a relabeling
// function instead of raw). Renaming two same-class processes permutes the
// summands of the outer sum and fixes every inner term, so the canonical
// fingerprint is unchanged; renaming across classes changes class labels
// and is correctly distinguished.
//
// Like the plain fingerprint, Canonical64 is maintained incrementally in
// O(changed) by Apply/take/SilentCrash and Successor.Commit when a Symmetry
// is attached: per process the base component and the buffered-message term
// sum are cached, and the outer sum is patched by subtracting the stale
// mixed signature and adding the fresh one.
//
// Soundness caveat (documented for explore's users): the signature is a
// one-round refinement, not a full graph canonicalization, so two
// configurations that are NOT renamings of each other can in principle
// share a canonical fingerprint when their per-process signatures form
// equal multisets with different "wiring" between same-class processes.
// For the paper's protocols the differential tests show verdict parity;
// symmetry reduction is nevertheless an explicit opt-in knob.

// SymHasher64 is an optional interface for State and Payload
// implementations that can hash themselves under a process-id relabeling:
// SymHash64 must hash exactly the content Hash64/Key covers, but fold every
// embedded ProcessID through relabel instead of raw, and fold collections
// keyed or ordered by process id as multisets of relabeled entries (a
// concrete-id sort order is not preserved by renaming). Implementations
// make their algorithm eligible for orbit-collapsing symmetry reduction;
// states and payloads without it fall back to their concrete hash, which
// keeps searches correct but collapses nothing.
type SymHasher64 interface {
	SymHash64(relabel func(ProcessID) uint64) uint64
}

// Symmetry captures the stabilizer of one search's initial conditions: the
// partition of 1..n into classes of interchangeable processes (equal
// proposal, equal liveness). It is immutable and safe to share across the
// configurations and worker goroutines of a search.
type Symmetry struct {
	labels  []uint64 // labels[p-1]: mixed class label of process p
	relabel func(ProcessID) uint64
	classes int
	// slotHash[i] is the FNV state after slot i's label, the common prefix
	// of its signatures; crashedHash[i] continues it with the crash flag.
	slotHash    []uint64
	crashedHash []uint64
}

// NewSymmetry builds the input-stabilizer classes for a system with the
// given proposals in which exactly the processes in live are scheduled
// (everyone else is initially dead). Two processes are interchangeable iff
// they propose the same value and are both live or both initially dead.
func NewSymmetry(inputs []Value, live []ProcessID) *Symmetry {
	n := len(inputs)
	isLive := make([]bool, n)
	for _, p := range live {
		if p >= 1 && int(p) <= n {
			isLive[p-1] = true
		}
	}
	sym := &Symmetry{labels: make([]uint64, n), slotHash: make([]uint64, n), crashedHash: make([]uint64, n)}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		h := uint64(fnvOffset64)
		h = fnvUint(h, uint64(inputs[i]))
		if isLive[i] {
			h = fnvUint(h, 1)
		}
		sym.labels[i] = splitmix64(h) | 1
		sym.slotHash[i] = fnvUint(fnvOffset64, sym.labels[i])
		sym.crashedHash[i] = fnvUint(sym.slotHash[i], 1)
		if !seen[sym.labels[i]] {
			seen[sym.labels[i]] = true
			sym.classes++
		}
	}
	sym.relabel = func(p ProcessID) uint64 {
		if p < 1 || int(p) > n {
			return uint64(p) // out-of-range ids hash as themselves
		}
		return sym.labels[p-1]
	}
	return sym
}

// Classes returns the number of distinct interchangeability classes; a
// count equal to n means the stabilizer is trivial and symmetry reduction
// cannot collapse anything.
func (s *Symmetry) Classes() int { return s.classes }

// Label returns the class label of process p.
func (s *Symmetry) Label(p ProcessID) uint64 { return s.relabel(p) }

// symStateHash hashes a state under the symmetry's relabeling: the fast
// path for SymHasher64 implementations, the concrete state hash otherwise.
func symStateHash(s State, sym *Symmetry) uint64 {
	if h, ok := s.(SymHasher64); ok {
		return h.SymHash64(sym.relabel)
	}
	return stateHash(s)
}

// symStateHash64 returns slot i's relabeled state hash on either engine:
// the packer's SymHash64 on the packed engine (which reproduces the pointer
// fallback for non-equivariant algorithms), symStateHash otherwise.
func (c *Configuration) symStateHash64(i int) uint64 {
	if c.pk != nil {
		return c.pk.SymHash64(c.prec(i), i, c.sym)
	}
	return symStateHash(c.states[i], c.sym)
}

// symBaseComponent hashes process slot i's relabeled content: class label,
// crash flag, write-once decision, and relabeled state.
func (c *Configuration) symBaseComponent(i int) uint64 {
	return c.sym.baseComponent(i, c.crashed[i], c.decisions[i], c.symStateHash64(i), c.faultCount(i))
}

// baseComponent is symBaseComponent over explicit slot content, so a
// planned step (see Successor) can hash the slot it would write.
func (s *Symmetry) baseComponent(i int, crashed bool, decision Value, symStateHash uint64, faults int32) uint64 {
	h := s.slotHash[i]
	if crashed {
		h = s.crashedHash[i]
	}
	h = fnvUint(h, uint64(decision))
	h = fnvUint(h, symStateHash)
	if faults != 0 {
		// Fault counts fold inside the per-slot signature (not as a separate
		// additive term) so renamings must match counts slot-by-slot; guarded
		// to keep crash-only canonical fingerprints bit-identical.
		h = fnvUint(h, uint64(faults))
	}
	return splitmix64(h)
}

// symMsgTerm hashes one buffered message for the receiver's signature: the
// sender's class label plus the relabeled payload. The receiver is encoded
// by which process's signature the term is summed into, not by a salt, so
// renaming receivers within a class permutes whole signatures. Payloads
// that did not opt into SymHasher64 are hashed fully concretely — sender id
// included — so a non-equivariant algorithm's messages never collapse.
func symMsgTerm(sym *Symmetry, m *Message) uint64 {
	h := uint64(fnvOffset64)
	if sh, ok := m.Payload.(SymHasher64); ok {
		h = fnvUint(h, sym.relabel(m.From))
		h = fnvUint(h, sh.SymHash64(sym.relabel))
	} else {
		h = fnvUint(h, uint64(m.From))
		h = fnvUint(h, payloadHash(m.Payload))
	}
	return splitmix64(h)
}

// symSig returns the mixed signature of process slot i from the cached
// components.
func (c *Configuration) symSig(i int) uint64 {
	return splitmix64(c.symBase[i] + c.symMsg[i])
}

// symRefreshBase re-hashes slot i's base component after its state, crash
// flag, or decision changed, patching the canonical sum.
func (c *Configuration) symRefreshBase(i int) {
	old := c.symSig(i)
	c.symBase[i] = c.symBaseComponent(i)
	c.symfp += c.symSig(i) - old
}

// symAddMsg folds message term delta into receiver slot i's buffered-message
// sum (pass a negated term to remove), patching the canonical sum.
func (c *Configuration) symAddMsg(i int, delta uint64) {
	old := c.symSig(i)
	c.symMsg[i] += delta
	c.symfp += c.symSig(i) - old
}

// AttachSymmetry enables orbit-canonical fingerprint maintenance on the
// configuration (and, through Clone/CloneInto, on every configuration
// derived from it). The symmetry must describe this configuration's system:
// same process count, and classes grouping exactly the processes the caller
// treats as interchangeable.
func (c *Configuration) AttachSymmetry(sym *Symmetry) {
	c.sym = sym
	if c.pk != nil {
		// Let the packer precompute its relabeling tables once, before the
		// search shares it across worker goroutines.
		c.pk.AttachSymmetry(sym)
	}
	c.recomputeSymmetry()
}

// HasSymmetry reports whether an orbit-canonical fingerprint is being
// maintained.
func (c *Configuration) HasSymmetry() bool { return c.sym != nil }

// Canonical64 returns the orbit-canonical 64-bit fingerprint maintained
// since AttachSymmetry: equal for configurations that are renamings of each
// other under input/liveness-preserving process permutations (for
// algorithms implementing SymHasher64). It is 0-valued and meaningless
// before AttachSymmetry.
func (c *Configuration) Canonical64() uint64 { return c.symfp }

// LiveCanonical64 is LiveFingerprint for the orbit-canonical fingerprint:
// the canonical sum with every crashed slot's signature replaced by a
// normalized one covering only the class label, the crash flag, and the
// write-once decision — the crashed state hash and the crashed slot's
// buffered-message terms are dropped as behaviourally inert. Like
// Canonical64 it is meaningless before AttachSymmetry. The normalization is
// sound independently of SymHasher64 opt-ins: it never merges by renaming,
// only by inertness, and the live slots keep their Canonical64 hashing.
func (c *Configuration) LiveCanonical64() uint64 { return c.liveCanonical(c.symfp, nil) }

// liveCanonical projects the canonical fingerprint v of c, or of the
// successor s plans from c when s is non-nil, onto its live content.
func (c *Configuration) liveCanonical(v uint64, s *Successor) uint64 {
	for i := 0; i < c.n; i++ {
		crashed, decision := c.crashed[i], c.decisions[i]
		if s != nil && i == s.i {
			crashed, decision = s.crashed, s.decision
		}
		if !crashed {
			continue
		}
		sig := c.symSig(i)
		if s != nil {
			sig = s.symSig(i)
		}
		v += c.sym.crashedSig(i, decision) - sig
	}
	return v
}

// crashedSig is the normalized mixed signature LiveCanonical64 gives the
// crashed slot i with the given decision: class label, crash flag and
// decision only.
func (s *Symmetry) crashedSig(i int, decision Value) uint64 {
	return splitmix64(splitmix64(fnvUint(s.crashedHash[i], uint64(decision))))
}

// recomputeSymmetry rebuilds the canonical fingerprint and its per-slot
// caches from scratch: AttachSymmetry uses it once, the symmetry tests use
// it to cross-check the incremental maintenance.
func (c *Configuration) recomputeSymmetry() {
	if cap(c.symBase) < c.n {
		c.symBase = make([]uint64, c.n)
		c.symMsg = make([]uint64, c.n)
	}
	c.symBase = c.symBase[:c.n]
	c.symMsg = c.symMsg[:c.n]
	c.symfp = 0
	for i := 0; i < c.n; i++ {
		c.symBase[i] = c.symBaseComponent(i)
		c.symMsg[i] = 0
		if c.pk != nil {
			for j := range c.pbuf[i] {
				m := &c.pbuf[i][j]
				m.sfp = c.packedSymMsgTerm(*m)
				c.symMsg[i] += m.sfp
			}
		} else {
			for j := range c.buffers[i] {
				m := &c.buffers[i][j]
				m.sfp = symMsgTerm(c.sym, m)
				c.symMsg[i] += m.sfp
			}
		}
		c.symfp += c.symSig(i)
	}
}
