package sim

// Native fuzz targets for the incremental fingerprint maintenance: random
// Apply/crash/clone sequences driven by the fuzzer's byte stream, asserting
// after every operation that the incrementally maintained hashes equal a
// from-scratch recomputation. This is the property the whole search stack
// leans on — a drifting incremental hash would silently merge or duplicate
// configurations in every explorer — so it gets fuzzed, not just unit
// tested. CI runs each target briefly (see the fuzz-smoke step); the seed
// corpus below also runs as ordinary tests on every `go test`.

import (
	"fmt"
	"testing"
)

// fuzzAlg is a deterministic two-phase broadcaster exercising every
// fingerprint path: a first-step broadcast, a second broadcast once two
// messages were absorbed (so sends happen at different depths), a growing
// per-sender receipt multiset (order-independent state hashing), and a
// decision once three distinct senders were heard.
type fuzzAlg struct{}

func (fuzzAlg) Name() string { return "fuzz" }

func (fuzzAlg) Init(n int, id ProcessID, input Value) State {
	return &fuzzState{n: n, id: id, input: input, heard: map[ProcessID]int{}, decision: NoValue}
}

type fuzzState struct {
	n        int
	id       ProcessID
	input    Value
	phase    int // 0 = first broadcast pending, 1 = second pending, 2 = done
	total    int
	heard    map[ProcessID]int
	decision Value
}

func (s *fuzzState) clone() *fuzzState {
	cp := *s
	cp.heard = make(map[ProcessID]int, len(s.heard))
	for p, c := range s.heard {
		cp.heard[p] = c
	}
	return &cp
}

func (s *fuzzState) Step(in Input) (State, []Send) {
	next := s.clone()
	var sends []Send
	if next.phase == 0 {
		next.phase = 1
		sends = Broadcast(next.n, testPayload{Tag: "F1", From: next.id})
	}
	for _, m := range in.Delivered {
		if p, ok := m.Payload.(testPayload); ok {
			next.heard[p.From]++
			next.total++
		}
	}
	if next.phase == 1 && next.total >= 2 {
		next.phase = 2
		sends = append(sends, Broadcast(next.n, testPayload{Tag: "F2", From: next.id})...)
	}
	if next.decision == NoValue && len(next.heard) >= 3 {
		next.decision = next.input
	}
	return next, sends
}

func (s *fuzzState) Decided() (Value, bool) { return s.decision, s.decision != NoValue }

func (s *fuzzState) Key() string {
	return fmt.Sprintf("fz{%d,%d,%d,%d,%s,%d}", s.id, s.input, s.phase, s.total, encodeHeard(s.heard), s.decision)
}

// Hash64 implements Hasher64 (the heard multiset folds as a commutative
// sum, mirroring the production states).
func (s *fuzzState) Hash64() uint64 {
	h := HashString(HashSeed(), "fz")
	h = HashUint(h, uint64(s.id))
	h = HashUint(h, uint64(s.input))
	h = HashUint(h, uint64(s.phase))
	h = HashUint(h, uint64(s.total))
	h = HashUint(h, hashHeard(s.heard, func(p ProcessID) uint64 { return uint64(p) }))
	h = HashUint(h, uint64(s.decision))
	return h
}

// SymHash64 implements SymHasher64: Hash64 with embedded ids relabeled.
func (s *fuzzState) SymHash64(relabel func(ProcessID) uint64) uint64 {
	h := HashString(HashSeed(), "fz")
	h = HashUint(h, relabel(s.id))
	h = HashUint(h, uint64(s.input))
	h = HashUint(h, uint64(s.phase))
	h = HashUint(h, uint64(s.total))
	h = HashUint(h, hashHeard(s.heard, relabel))
	h = HashUint(h, uint64(s.decision))
	return h
}

func hashHeard(heard map[ProcessID]int, label func(ProcessID) uint64) uint64 {
	var sum uint64
	for p, c := range heard {
		sum += HashMix(HashUint(HashUint(HashSeed(), label(p)), uint64(c)))
	}
	return sum
}

func encodeHeard(heard map[ProcessID]int) string {
	// Deterministic by scanning ids in order; n is tiny in these tests.
	out := ""
	for p := ProcessID(1); int(p) <= 8; p++ {
		if c, ok := heard[p]; ok {
			out += fmt.Sprintf("%d:%d;", p, c)
		}
	}
	return out
}

// testPayload gains fast and symmetric hashes here so the canonical fuzz
// target exercises the Hasher64 and relabeled-payload paths too (both are
// equality-compatible with its Key).
func (p testPayload) Hash64() uint64 {
	return HashUint(HashString(HashSeed(), p.Tag), uint64(p.From))
}

func (p testPayload) SymHash64(relabel func(ProcessID) uint64) uint64 {
	return HashUint(HashString(HashSeed(), p.Tag), relabel(p.From))
}

// fuzzDrive interprets the fuzzer's byte stream as a sequence of simulator
// operations on a fresh 4-process configuration (proposals [0,0,1,1]: two
// non-trivial symmetry classes) and invokes check after every mutation.
// Inapplicable operations (stepping a crashed process, empty deliveries)
// are skipped, so every byte stream is a valid schedule prefix. Every other
// step is planned and committed into a pooled clone instead of applied in
// place, and its planned fingerprints must equal the committed
// configuration's, both as maintained and as recomputed from scratch.
func fuzzDrive(t *testing.T, data []byte, attachSym bool, check func(t *testing.T, cfg *Configuration)) {
	inputs := []Value{0, 0, 1, 1}
	live := []ProcessID{1, 2, 3, 4}
	cfg := NewConfiguration(fuzzAlg{}, inputs)
	if attachSym {
		cfg.AttachSymmetry(NewSymmetry(inputs, live))
	}
	var pool ClonePool
	var succ Successor
	prints := func(f interface {
		Fingerprint() uint64
		LiveFingerprint() uint64
		Canonical64() uint64
		LiveCanonical64() uint64
	}) [4]uint64 {
		if !attachSym {
			return [4]uint64{f.Fingerprint(), f.LiveFingerprint()}
		}
		return [4]uint64{f.Fingerprint(), f.LiveFingerprint(), f.Canonical64(), f.LiveCanonical64()}
	}
	check(t, cfg)
	for i := 0; i+1 < len(data) && i < 120; i += 2 {
		p := ProcessID(int(data[i])%len(inputs) + 1)
		if cfg.Crashed(p) {
			continue
		}
		req := StepRequest{Proc: p}
		switch data[i+1] % 11 {
		case 0: // empty-delivery step
		case 1: // deliver the oldest pending message
			if id, ok := cfg.OldestMessageID(p); ok {
				req.Deliver = []int64{id}
			}
		case 2: // flush the buffer
			req.Deliver = cfg.DeliverAll(p)
		case 3: // crash after flushing
			req.Deliver = cfg.DeliverAll(p)
			req.Crash = true
		case 4: // crash with full omission
			req.Crash = true
			req.OmitTo = map[ProcessID]bool{1: true, 2: true, 3: true, 4: true}
		case 5: // silent crash
			req.SilentCrash = true
		case 6: // deep clone swap: continue on the copy
			cfg = cfg.Clone()
			check(t, cfg)
			continue
		case 7: // pooled clone swap: continue on a recycled destination
			next := cfg.CloneInto(pool.Get())
			pool.Put(cfg)
			cfg = next
			check(t, cfg)
			continue
		case 8: // send-omission step
			req.OmitSends = true
		case 9: // receive-omission flush
			req.Deliver = cfg.DeliverAll(p)
			req.DropDeliver = true
		case 10: // Byzantine value-corruption step
			req.Corrupt = true
		}
		if i/2%2 == 0 {
			if err := cfg.ApplyQuiet(req); err != nil {
				t.Fatalf("apply %+v: %v", req, err)
			}
			check(t, cfg)
			continue
		}
		if err := cfg.Plan(req, &succ); err != nil {
			t.Fatalf("plan %+v: %v", req, err)
		}
		planned := prints(&succ)
		next := succ.Commit(pool.Get())
		pool.Put(cfg)
		cfg = next
		if got := prints(cfg); got != planned {
			t.Fatalf("plan %+v: planned fingerprints %#x, committed %#x", req, planned, got)
		}
		scratch := cfg.Clone()
		scratch.recomputeFingerprint()
		if attachSym {
			scratch.recomputeSymmetry()
		}
		if got := prints(scratch); got != planned {
			t.Fatalf("plan %+v: planned fingerprints %#x, recomputed %#x", req, planned, got)
		}
		check(t, cfg)
	}
}

// fuzzSeeds is the shared seed corpus: empty, short, and long op streams
// plus patterns that force crashes, omissions, and clone churn early.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 2, 1, 2, 2, 2, 3, 2, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 3, 1, 4, 2, 5, 3, 2})
	f.Add([]byte{0, 0, 1, 6, 2, 7, 3, 0, 0, 2, 1, 2, 2, 2, 3, 2, 0, 7, 1, 1})
	f.Add([]byte{3, 0, 2, 0, 1, 0, 0, 0, 3, 2, 2, 2, 1, 2, 0, 2, 3, 1, 2, 1, 1, 1, 0, 1})
	// Omission/corruption fault op streams: send-omission broadcasts,
	// receive-omission flushes, corrupted broadcasts, interleaved with
	// crashes and clone churn so fault counts survive copying.
	f.Add([]byte{0, 8, 1, 8, 2, 0, 3, 0, 0, 9, 1, 9, 2, 2, 3, 2})
	f.Add([]byte{0, 10, 1, 10, 2, 2, 3, 2, 0, 2, 1, 9, 2, 8, 3, 10})
	f.Add([]byte{0, 8, 0, 6, 1, 9, 1, 7, 2, 10, 2, 3, 3, 9, 0, 5, 1, 2})
}

// FuzzFingerprintIncremental drives random Apply/crash/clone sequences and
// asserts that the incrementally maintained fingerprint — and its
// crash-normalized LiveFingerprint projection — always equal a from-scratch
// recomputation on a fresh clone.
func FuzzFingerprintIncremental(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDrive(t, data, false, func(t *testing.T, cfg *Configuration) {
			scratch := cfg.Clone()
			scratch.recomputeFingerprint()
			if scratch.Fingerprint() != cfg.Fingerprint() {
				t.Fatalf("incremental fingerprint %#x != recomputed %#x\nconfig: %s",
					cfg.Fingerprint(), scratch.Fingerprint(), cfg.Key())
			}
			if got, want := cfg.LiveFingerprint(), scratch.LiveFingerprint(); got != want {
				t.Fatalf("incremental LiveFingerprint %#x != recomputed %#x\nconfig: %s", got, want, cfg.Key())
			}
		})
	})
}

// FuzzCanonical64 is FuzzFingerprintIncremental for the orbit-canonical
// fingerprint: the incrementally patched canonical sum (and its
// crash-normalized LiveCanonical64 projection) must equal the from-scratch
// recomputation after every operation.
func FuzzCanonical64(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDrive(t, data, true, func(t *testing.T, cfg *Configuration) {
			scratch := cfg.Clone()
			scratch.recomputeSymmetry()
			if scratch.Canonical64() != cfg.Canonical64() {
				t.Fatalf("incremental canonical %#x != recomputed %#x\nconfig: %s",
					cfg.Canonical64(), scratch.Canonical64(), cfg.Key())
			}
			if got, want := cfg.LiveCanonical64(), scratch.LiveCanonical64(); got != want {
				t.Fatalf("incremental LiveCanonical64 %#x != recomputed %#x\nconfig: %s", got, want, cfg.Key())
			}
		})
	})
}
