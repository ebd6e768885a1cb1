package sim

// This file implements the packed configuration engine: a struct-of-arrays
// encoding of Configuration in which every process's local state is a
// fixed-width record of uint64 words in one flat slice and every buffered
// message is a fixed-width PackedMsg value in a per-receiver slice — no
// interface values, no per-state allocations, no pointer chasing on the
// exploration hot path. The pointer-based Configuration remains the
// explain/debug/witness-replay view; a packed configuration converts to it
// on demand (State, Buffer, Key unpack lazily), and package explore's
// differential gate proves both engines visit the identical set in the
// identical order.
//
// The encoding is algorithm-specific: a Packer supplied by the algorithm
// (via PackableAlgorithm) defines the record layout, the transition
// function over records, and hash functions that are BIT-IDENTICAL to the
// pointer states' Hash64/SymHash64 and to the payloads' hash chains. That
// bit-identity is the load-bearing invariant — the incremental fingerprint,
// the orbit-canonical fingerprint, and therefore every visited-set key,
// insertion order, tie-break, and truncation point of a search are equal
// between the two engines, so verdicts, witnesses, and stats coincide
// exactly (package explore's packed differential tests and FuzzPackedParity
// pin this).
//
// Packed configurations support at most 64 processes (process sets are
// bitmasks); PackerFor reports false beyond that, and callers fall back to
// the pointer engine.

// PackedMsg is the fixed-width encoding of one buffered message: the
// bookkeeping id, the sender, a packer-defined kind tag and auxiliary word
// (e.g. a heard-set bitmask), and the Byzantine-corruption flag. The
// fingerprint component caches fp/sfp mirror Message's.
type PackedMsg struct {
	ID   int64
	From ProcessID
	// Kind tags the payload variant; its values are private to the packer
	// that emitted the message.
	Kind uint8
	// Corrupt marks a Byzantine value fault: the payload is the generic
	// Corrupted wrapping of the genuine one (see faults.go). Receivers'
	// packers must ignore corrupt messages, mirroring the pointer engine's
	// failing type assertions.
	Corrupt bool
	// Aux is one packer-defined payload word (0 when unused).
	Aux uint64

	fp  uint64
	sfp uint64
}

// PackedInput is Input over packed messages: everything a packed step
// observes. The Delivered slice may alias a configuration's buffer; the
// packer must neither modify nor retain it.
type PackedInput struct {
	Time      int
	Delivered []PackedMsg
	FD        FDValue
}

// PackedEmitter collects the sends of one packed step. It applies the
// restricted algorithm's membership filter at emission — the packed
// equivalent of restrictedState dropping non-member sends before the step
// driver sees them, so no message id is consumed for a dropped send.
type PackedEmitter struct {
	n     int
	mask  uint64 // bit p-1 set: sends to p are kept
	sends []packedSend
}

type packedSend struct {
	To   ProcessID
	Kind uint8
	Aux  uint64
}

// Send emits one message to process to; sends to processes outside the
// restriction's member set are silently dropped.
func (em *PackedEmitter) Send(to ProcessID, kind uint8, aux uint64) {
	if to >= 1 && int(to) <= em.n && em.mask&(1<<uint(to-1)) == 0 {
		return
	}
	em.sends = append(em.sends, packedSend{To: to, Kind: kind, Aux: aux})
}

// Broadcast emits one message to every process 1..n (the sender included),
// in ascending order — exactly sim.Broadcast filtered by the membership
// mask.
func (em *PackedEmitter) Broadcast(kind uint8, aux uint64) {
	for p := 1; p <= em.n; p++ {
		if em.mask&(1<<uint(p-1)) == 0 {
			continue
		}
		em.sends = append(em.sends, packedSend{To: ProcessID(p), Kind: kind, Aux: aux})
	}
}

// Packer defines an algorithm's packed encoding: the per-process record
// layout and the transition, decision, and hash functions over it. A Packer
// is built for one concrete (n, inputs) instance and is shared read-only by
// every configuration cloned from that instance's initial configuration —
// implementations must be safe for concurrent readers after construction
// (AttachSymmetry is called before any concurrent use; see below).
//
// The hash contract is strict bit-identity with the pointer engine:
// Hash64(rec, i) must equal the pointer state's Hash64 (or FNV over Key for
// states without Hasher64), SymHash64 must equal symStateHash of the
// pointer state, and PayloadHash64/PayloadSymHash64 must equal the
// payload's chains — for every reachable record and message. Packers for
// algorithms whose states or payloads deliberately opt out of SymHasher64
// (FLPKSet) must return the concrete hash from SymHash64 and ok=false from
// PayloadSymHash64, reproducing the pointer fallback.
type Packer interface {
	// Words returns the fixed record width in uint64 words.
	Words() int
	// Init writes process i's initial state into rec (rec is zeroed).
	Init(rec []uint64, i int)
	// Step applies one atomic step to rec in place, emitting sends through
	// em. It must mirror the pointer Step exactly: same state evolution,
	// same sends in the same order, and it must ignore corrupt messages.
	// in.Delivered may alias the stepping configuration's own buffer, which
	// other goroutines may be planning steps from (see Configuration.Plan):
	// Step must neither modify nor retain it.
	Step(rec []uint64, i int, in PackedInput, em *PackedEmitter)
	// Decided returns process i's decision, mirroring State.Decided.
	Decided(rec []uint64, i int) (Value, bool)
	// SendsDone mirrors the state's SendQuiescent answer (false for
	// algorithms without the interface).
	SendsDone(rec []uint64, i int) bool
	// Hash64 returns the state hash of rec, bit-identical to the pointer
	// state's (see stateHash).
	Hash64(rec []uint64, i int) uint64
	// SymHash64 returns the relabeled state hash under sym, bit-identical
	// to symStateHash of the pointer state. Implementations should cache
	// relabeling tables via AttachSymmetry but must stay correct for any
	// sym passed (compute on the fly when it is not the cached one).
	SymHash64(rec []uint64, i int, sym *Symmetry) uint64
	// AttachSymmetry lets the packer precompute relabeling tables for sym.
	// It is called from the search's initial configuration setup, before
	// any concurrent use, and may be called repeatedly with the same sym.
	AttachSymmetry(sym *Symmetry)
	// PayloadHash64 returns the GENUINE payload hash of m (ignoring
	// m.Corrupt — the configuration applies the Corrupted wrapping).
	PayloadHash64(m PackedMsg) uint64
	// PayloadSymHash64 returns the relabeled payload hash and ok=true when
	// the payload type implements SymHasher64, or ok=false for the concrete
	// fallback (again ignoring m.Corrupt).
	PayloadSymHash64(m PackedMsg, sym *Symmetry) (uint64, bool)
	// Unpack materializes process i's pointer-based State (the algorithm's
	// own state type, unwrapped from any restriction) for debug/explain
	// paths.
	Unpack(rec []uint64, i int) State
	// UnpackPayload materializes m's genuine Payload (the configuration
	// wraps it in Corrupted when m.Corrupt is set).
	UnpackPayload(m PackedMsg) Payload
}

// PackableAlgorithm is the opt-in interface algorithms implement to support
// the packed engine. NewPacker builds the packer for one concrete instance;
// inputs[i] is process i+1's proposal. The packed encoding assumes the
// algorithm's payloads do not implement Corruptible (Byzantine corruption
// uses the generic Corrupted wrapper) — true for every algorithm in this
// repository.
type PackableAlgorithm interface {
	Algorithm
	NewPacker(n int, inputs []Value) Packer
}

// PackerFor resolves the packed encoding for alg over the given proposal
// vector: it unwraps a Restrict wrapper into the send-membership mask,
// requires the (inner) algorithm to implement PackableAlgorithm, and
// requires n <= 64. ok=false means the caller must use the pointer engine.
func PackerFor(alg Algorithm, inputs []Value) (pk Packer, sendMask uint64, ok bool) {
	n := len(inputs)
	if n < 1 || n > 64 {
		return nil, 0, false
	}
	mask := uint64(1)<<uint(n) - 1
	if n == 64 {
		mask = ^uint64(0)
	}
	for {
		r, isR := alg.(*restricted)
		if !isR {
			break
		}
		mask = 0
		for _, p := range r.ids {
			if p >= 1 && int(p) <= n {
				mask |= 1 << uint(p-1)
			}
		}
		alg = r.inner
	}
	pa, isP := alg.(PackableAlgorithm)
	if !isP {
		return nil, 0, false
	}
	return pa.NewPacker(n, inputs), mask, true
}

// NewPackedConfiguration builds the initial packed configuration for alg
// with the given proposals, or ok=false when the algorithm has no packed
// encoding (see PackerFor). The result behaves exactly like
// NewConfiguration's for every Configuration method; Apply never records
// events (it returns a zero Event) — witness replay uses the pointer
// engine.
func NewPackedConfiguration(alg Algorithm, inputs []Value) (*Configuration, bool) {
	pk, mask, ok := PackerFor(alg, inputs)
	if !ok {
		return nil, false
	}
	n := len(inputs)
	w := pk.Words()
	c := &Configuration{
		n:         n,
		crashed:   make([]bool, n),
		decisions: make([]Value, n),
		nextMsgID: 1,
		pk:        pk,
		psend:     mask,
		pwords:    w,
		pstates:   make([]uint64, n*w),
		pbuf:      make([][]PackedMsg, n),
	}
	for i := 0; i < n; i++ {
		pk.Init(c.prec(i), i)
		c.decisions[i] = NoValue
		if v, decided := pk.Decided(c.prec(i), i); decided {
			c.decisions[i] = v
		}
	}
	c.recomputeFingerprint()
	return c, true
}

// Packed reports whether this configuration uses the packed engine.
func (c *Configuration) Packed() bool { return c.pk != nil }

// prec returns process slot i's packed record.
func (c *Configuration) prec(i int) []uint64 {
	return c.pstates[i*c.pwords : (i+1)*c.pwords]
}

// StateSendsDone reports whether process p's state proves, through the
// send-quiescence contract, that it never sends again — without
// materializing the state on the packed engine (package explore's
// partial-order reduction probes every live process per expansion).
func (c *Configuration) StateSendsDone(p ProcessID) bool {
	i := int(p) - 1
	if c.pk != nil {
		return c.pk.SendsDone(c.prec(i), i)
	}
	return StateSendsDone(c.states[i])
}

// packedPayloadHash is payloadHash for a packed message: the genuine
// payload hash from the packer, pushed through the Corrupted wrapper's
// chain when the message is corrupt.
func (c *Configuration) packedPayloadHash(m PackedMsg) uint64 {
	h := c.pk.PayloadHash64(m)
	if m.Corrupt {
		return fnvUint(fnvString(fnvOffset64, "byz"), h)
	}
	return h
}

// packedMsgComponent is msgComponent for a packed message.
func (c *Configuration) packedMsgComponent(recv int, m PackedMsg) uint64 {
	h := uint64(fnvOffset64)
	h = fnvUint(h, uint64(m.From))
	h = fnvUint(h, c.packedPayloadHash(m))
	return splitmix64(h) * bufSalt(recv)
}

// packedSymMsgTerm is symMsgTerm for a packed message. A corrupt message
// always takes the equivariant branch — the Corrupted wrapper implements
// SymHasher64 unconditionally, relabeling through the inner payload when it
// is equivariant and falling back to its concrete hash otherwise.
func (c *Configuration) packedSymMsgTerm(m PackedMsg) uint64 {
	h := uint64(fnvOffset64)
	if m.Corrupt {
		inner, ok := c.pk.PayloadSymHash64(m, c.sym)
		if !ok {
			inner = c.pk.PayloadHash64(m)
		}
		h = fnvUint(h, c.sym.relabel(m.From))
		h = fnvUint(h, fnvUint(fnvString(fnvOffset64, "byz"), inner))
	} else if sp, ok := c.pk.PayloadSymHash64(m, c.sym); ok {
		h = fnvUint(h, c.sym.relabel(m.From))
		h = fnvUint(h, sp)
	} else {
		h = fnvUint(h, uint64(m.From))
		h = fnvUint(h, c.pk.PayloadHash64(m))
	}
	return splitmix64(h)
}

// unpackPayload materializes a packed message's Payload, applying the
// Corrupted wrapper when the message carries a Byzantine value fault.
func (c *Configuration) unpackPayload(m PackedMsg) Payload {
	p := c.pk.UnpackPayload(m)
	if m.Corrupt {
		return Corrupted{Inner: p}
	}
	return p
}

// unpackMessage materializes a packed message as a Message addressed to
// process recv+1. SentAt is not tracked by the packed engine (Key and the
// fingerprints exclude it) and reads back as 0.
func (c *Configuration) unpackMessage(recv int, m PackedMsg) Message {
	return Message{
		ID:      m.ID,
		From:    m.From,
		To:      ProcessID(recv + 1),
		Payload: c.unpackPayload(m),
		fp:      m.fp,
		sfp:     m.sfp,
	}
}

// applyPacked is apply for packed configurations: the step planned and
// committed in place (see plan.go), allocation-free once the configuration's
// step scratch has grown. It never materializes an Event (witness replay
// runs on the pointer engine), so record is accepted and ignored.
func (c *Configuration) applyPacked(req StepRequest) (Event, error) {
	if c.pstep == nil {
		c.pstep = &Successor{}
	}
	s := c.pstep
	if err := c.planPacked(req, s); err != nil {
		return Event{}, err
	}
	s.commitTo(c, c)
	return Event{}, nil
}
