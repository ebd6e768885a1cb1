package sim

// This file splits a step into a plan and a commit. Configuration.Plan
// validates a step request exactly as Apply does and computes the step's
// outcome without writing to the configuration; the planned Successor then
// answers the four fingerprints of the configuration the step would
// produce, and Successor.Commit builds that configuration. A search can thus
// key a successor, look the key up in its visited set, and pay for the copy
// only when the key is new — explicit-state model checkers hash a successor
// from its parent's hash and the transition's changes for the same reason.
//
// On the packed engine a plan is a copy of the stepping process's record,
// one packer step on the copy, the step's delivered and sent messages, and
// the hash terms those change, each computed when first asked for: a
// symmetric search keys by the canonical fingerprint, so a successor it
// drops as a duplicate never hashes its plain terms. Every fingerprint is
// the parent's cached sum patched by those terms, the same deltas Apply
// folds in, so planned and committed fingerprints are equal bit for bit.
// Apply itself is a plan plus an in-place commit, which keeps the packed
// step's rules in one body.
//
// On the pointer engine a plan clones the parent into a configuration the
// Successor owns and steps it there; Commit hands that configuration over.

import (
	"fmt"
	"math/bits"
)

// Successor is a planned step of a configuration: see Configuration.Plan. It
// holds scratch space reused by every plan, so one Successor serves a whole
// search; it is not safe for concurrent use. A plan stays valid until the
// next Plan or Commit on the Successor, and only while its parent is not
// modified.
type Successor struct {
	parent *Configuration

	// cfg is the pointer engine's plan: the parent's clone, stepped.
	cfg *Configuration

	// The packed engine's plan: slot i's stepped record and its new crash
	// flag, decision and fault count; the messages the step takes from the
	// slot's buffer (the buffer's prefix, aliased, when prefix is set; a copy
	// in buffer order otherwise, kept in deliver) and the ones it sends,
	// collected through em. silent marks a silent crash, which takes no
	// step. touched has bit j set for every slot whose buffer or state the
	// step changes.
	i        int
	rec      []uint64
	crashed  bool
	decision Value
	faults   int32
	faulted  bool
	silent   bool
	taken    []PackedMsg
	prefix   bool
	msgs     []plannedMsg
	touched  uint64
	em       PackedEmitter
	deliver  []PackedMsg

	// The hash terms, computed on first use: plain covers fp, procFP and the
	// sent messages' fp; canon covers symfp, symBase and their sfp.
	plain   bool
	fp      uint64
	procFP  uint64
	canon   bool
	symfp   uint64
	symBase uint64
}

// plannedMsg is one message a planned packed step sends: m, with its id
// assigned, bound for slot recv.
type plannedMsg struct {
	recv int
	m    PackedMsg
}

// Plan validates req exactly as Apply does and plans the step into s
// without writing to c, not even to c's scratch space, so several goroutines
// may plan steps of one configuration at once, each into its own Successor.
// It returns Apply's error for an inapplicable request, and s then holds no
// plan. The request's Deliver and OmitTo are read during the call only.
func (c *Configuration) Plan(req StepRequest, s *Successor) error {
	if c.pk == nil {
		s.parent = c
		s.cfg = c.CloneInto(s.cfg)
		return s.cfg.ApplyQuiet(req)
	}
	return c.planPacked(req, s)
}

// Commit returns the planned successor: what CloneInto(dst) followed by
// ApplyQuiet of the planned request returns, reusing the plan's step and
// hash terms. dst, which may be nil, is recycled as CloneInto's destination
// is; on the pointer engine it becomes the Successor's scratch instead, and
// the configuration the plan stepped is returned. Commit consumes the plan.
func (s *Successor) Commit(dst *Configuration) *Configuration {
	c := s.parent
	if c.pk == nil {
		out := s.cfg
		s.cfg = dst
		return out
	}
	if dst == nil || dst == c {
		dst = c.clonePacked(s)
	} else {
		dst = c.CloneInto(dst)
	}
	s.commitTo(c, dst)
	return dst
}

// Fingerprint returns the planned successor's Configuration.Fingerprint.
func (s *Successor) Fingerprint() uint64 {
	if s.parent.pk == nil {
		return s.cfg.Fingerprint()
	}
	s.plainTerms()
	return s.fp
}

// LiveFingerprint returns the planned successor's
// Configuration.LiveFingerprint.
func (s *Successor) LiveFingerprint() uint64 {
	c := s.parent
	if c.pk == nil {
		return s.cfg.LiveFingerprint()
	}
	s.plainTerms()
	return c.liveFingerprint(s.fp, s)
}

// Canonical64 returns the planned successor's Configuration.Canonical64.
func (s *Successor) Canonical64() uint64 {
	c := s.parent
	if c.pk == nil {
		return s.cfg.Canonical64()
	}
	if c.sym == nil {
		return c.symfp
	}
	s.canonTerms()
	return s.symfp
}

// LiveCanonical64 returns the planned successor's
// Configuration.LiveCanonical64.
func (s *Successor) LiveCanonical64() uint64 {
	c := s.parent
	if c.pk == nil {
		return s.cfg.LiveCanonical64()
	}
	if c.sym == nil {
		return c.symfp
	}
	s.canonTerms()
	return c.liveCanonical(s.symfp, s)
}

// planPacked is Plan on the packed engine: Apply's validation and step
// rules, run on a copy of the stepping process's record.
func (c *Configuration) planPacked(req StepRequest, s *Successor) error {
	if err := c.checkStep(req); err != nil {
		return err
	}
	p := req.Proc
	i := int(p) - 1
	s.parent = c
	s.i = i
	s.rec = append(s.rec[:0], c.prec(i)...)
	s.crashed = false
	s.decision = c.decisions[i]
	s.faults = c.faultCount(i)
	s.faulted = false
	s.silent = false
	s.taken = nil
	s.prefix = true
	s.msgs = s.msgs[:0]
	s.touched = 1 << uint(i)
	s.plain, s.canon = false, false

	if req.SilentCrash {
		s.silent = true
		s.crashed = true
		return nil
	}

	if err := c.planTake(i, req.Deliver, s); err != nil {
		return err
	}
	in := PackedInput{Time: c.time, Delivered: s.taken, FD: req.FD}
	if req.DropDeliver && len(s.taken) > 0 {
		in.Delivered = nil
		s.faulted = true
	}
	em := &s.em
	em.n = c.n
	em.mask = c.psend
	em.sends = em.sends[:0]
	c.pk.Step(s.rec, i, in, em)

	if v, ok := c.pk.Decided(s.rec, i); ok {
		if v == NoValue {
			return fmt.Errorf("sim: process %d decided the reserved NoValue", p)
		}
		if s.decision != NoValue && s.decision != v {
			return fmt.Errorf("sim: process %d changed decision %d -> %d", p, s.decision, v)
		}
		s.decision = v
	} else if s.decision != NoValue {
		return fmt.Errorf("sim: process %d retracted its decision", p)
	}

	id := c.nextMsgID
	for _, snd := range em.sends {
		if snd.To < 1 || int(snd.To) > c.n {
			return fmt.Errorf("sim: process %d sent to unknown process %d", p, snd.To)
		}
		if req.Crash && req.OmitTo[snd.To] {
			continue
		}
		if req.OmitSends {
			s.faulted = true
			continue
		}
		m := PackedMsg{ID: id, From: p, Kind: snd.Kind, Aux: snd.Aux}
		if req.Corrupt {
			m.Corrupt = true
			s.faulted = true
		}
		id++
		recv := int(snd.To) - 1
		s.msgs = append(s.msgs, plannedMsg{recv: recv, m: m})
		s.touched |= 1 << uint(recv)
	}
	s.crashed = req.Crash
	if s.faulted {
		s.faults++
	}
	return nil
}

// planTake resolves the delivery ids against buffer i into s.taken, in
// buffer order, with Apply's errors. When ids name a buffer prefix in order
// — the only delivery shapes the explorer emits (flush and oldest) — taken
// aliases that prefix; packers only read it (see Packer.Step).
func (c *Configuration) planTake(i int, ids []int64, s *Successor) error {
	if len(ids) == 0 {
		return nil
	}
	buf := c.pbuf[i]
	if len(ids) <= len(buf) {
		match := true
		for j, id := range ids {
			if buf[j].ID != id {
				match = false
				break
			}
		}
		if match {
			s.taken = buf[:len(ids):len(ids)]
			return nil
		}
	}
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if want[id] {
			return fmt.Errorf("sim: duplicate delivery of message %d", id)
		}
		want[id] = true
	}
	taken := s.deliver[:0]
	for _, m := range buf {
		if want[m.ID] {
			taken = append(taken, m)
			delete(want, m.ID)
		}
	}
	if len(want) > 0 {
		missing := make([]int64, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sortInt64s(missing)
		return fmt.Errorf("sim: messages %v not pending for process %d", missing, i+1)
	}
	s.deliver = taken
	s.taken = taken
	s.prefix = false
	return nil
}

func sortInt64s(xs []int64) {
	for a := 1; a < len(xs); a++ {
		for b := a; b > 0 && xs[b] < xs[b-1]; b-- {
			xs[b], xs[b-1] = xs[b-1], xs[b]
		}
	}
}

// plainTerms computes the plan's plain fingerprint terms: slot i's new
// component, the sent messages' components, and the patched sum.
func (s *Successor) plainTerms() {
	if s.plain {
		return
	}
	c := s.parent
	i := s.i
	s.procFP = procComponentOf(i, s.crashed, c.pk.Hash64(s.rec, i), s.decision, s.faults)
	fp := c.fp + s.procFP - c.procFP[i]
	for j := range s.taken {
		fp -= s.taken[j].fp
	}
	for k := range s.msgs {
		pm := &s.msgs[k]
		pm.m.fp = c.packedMsgComponent(pm.recv, pm.m)
		fp += pm.m.fp
	}
	s.fp = fp
	s.plain = true
}

// canonTerms computes the plan's orbit-canonical terms: slot i's new base
// component, the sent messages' terms, and the canonical sum patched at
// every touched slot. The parent must have a Symmetry attached.
func (s *Successor) canonTerms() {
	if s.canon {
		return
	}
	c := s.parent
	i := s.i
	s.symBase = c.sym.baseComponent(i, s.crashed, s.decision, c.pk.SymHash64(s.rec, i, c.sym), s.faults)
	for k := range s.msgs {
		pm := &s.msgs[k]
		pm.m.sfp = c.packedSymMsgTerm(pm.m)
	}
	s.canon = true
	v := c.symfp
	for t := s.touched; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		v += s.symSig(j) - c.symSig(j)
	}
	s.symfp = v
}

// sentTo returns the number of messages the plan sends to slot j; 0 for a
// nil plan.
func (s *Successor) sentTo(j int) int {
	if s == nil || s.touched&(1<<uint(j)) == 0 {
		return 0
	}
	n := 0
	for k := range s.msgs {
		if s.msgs[k].recv == j {
			n++
		}
	}
	return n
}

// bufDelta returns the change of slot j's buffered-message term sum, plain
// (canon false) or canonical: the terms of the messages sent to j, less
// those of the messages taken from it.
func (s *Successor) bufDelta(j int, canon bool) uint64 {
	if s.touched&(1<<uint(j)) == 0 {
		return 0
	}
	var d uint64
	if j == s.i {
		for k := range s.taken {
			if canon {
				d -= s.taken[k].sfp
			} else {
				d -= s.taken[k].fp
			}
		}
	}
	for k := range s.msgs {
		if s.msgs[k].recv != j {
			continue
		}
		if canon {
			d += s.msgs[k].m.sfp
		} else {
			d += s.msgs[k].m.fp
		}
	}
	return d
}

// symSig returns slot j's mixed signature in the planned successor; the
// canonical terms must be computed.
func (s *Successor) symSig(j int) uint64 {
	c := s.parent
	if s.touched&(1<<uint(j)) == 0 {
		return c.symSig(j)
	}
	base := c.symBase[j]
	if j == s.i {
		base = s.symBase
	}
	return splitmix64(base + c.symMsg[j] + s.bufDelta(j, true))
}

// commitTo writes the plan of a step of c into d, which holds c's content
// (a clone of c, or c itself for an in-place Apply): every term is computed
// before the first write, since the taken messages may alias c's buffer.
func (s *Successor) commitTo(c, d *Configuration) {
	i := s.i
	s.plainTerms()
	if c.sym != nil {
		s.canonTerms()
		for t := s.touched; t != 0; t &= t - 1 {
			j := bits.TrailingZeros64(t)
			d.symMsg[j] += s.bufDelta(j, true)
		}
		d.symBase[i] = s.symBase
		d.symfp = s.symfp
	}
	d.fp = s.fp
	d.procFP[i] = s.procFP
	copy(d.prec(i), s.rec)
	d.crashed[i] = s.crashed
	d.decisions[i] = s.decision
	if s.faulted {
		d.bumpFault(i)
	}
	if s.silent {
		return
	}
	if n := len(s.taken); n > 0 {
		buf := d.pbuf[i]
		if s.prefix {
			d.pbuf[i] = append(buf[:0], buf[n:]...)
		} else {
			rest, k := buf[:0], 0
			for _, m := range buf {
				if k < n && m.ID == s.taken[k].ID {
					k++
					continue
				}
				rest = append(rest, m)
			}
			d.pbuf[i] = rest
		}
	}
	for _, pm := range s.msgs {
		d.pbuf[pm.recv] = append(d.pbuf[pm.recv], pm.m)
	}
	d.nextMsgID += int64(len(s.msgs))
	d.time++
}
