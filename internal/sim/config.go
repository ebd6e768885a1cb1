package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// sharedIDs holds the immutable ascending id slice backing Processes():
// readers slice a read-only array; growth swaps in a longer copy.
var sharedIDs atomic.Pointer[[]ProcessID]

// sharedProcessIDs returns the shared read-only slice [1..n].
func sharedProcessIDs(n int) []ProcessID {
	if p := sharedIDs.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	size := n
	if size < 64 {
		size = 64
	}
	ids := make([]ProcessID, size)
	for i := range ids {
		ids[i] = ProcessID(i + 1)
	}
	for {
		cur := sharedIDs.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n:n]
		}
		if sharedIDs.CompareAndSwap(cur, &ids) {
			return ids[:n:n]
		}
	}
}

// Configuration is a global system configuration per Section II: the vector
// of local states plus the message buffer of every process, together with
// the global time (number of steps taken so far) and the crash record.
type Configuration struct {
	n         int
	states    []State     // index p-1 holds the state of process p
	buffers   [][]Message // index p-1 holds messages sent to p, not yet received
	crashed   []bool      // index p-1: p has taken its final step
	decisions []Value     // index p-1: write-once output, NoValue while undecided
	time      int
	nextMsgID int64

	// faults counts, per process, the committed fault events of the
	// pluggable fault models (see faults.go). It stays nil — and contributes
	// nothing to any fingerprint — until the first effective fault action,
	// so crash-only runs are bit-identical to the pre-fault-model engine.
	faults []int32

	// fp is the incremental fingerprint (see fingerprint.go); procFP caches
	// the per-process components so state changes fold in as deltas.
	fp     uint64
	procFP []uint64

	// sym, when non-nil, enables maintenance of the orbit-canonical
	// fingerprint symfp (see symmetry.go); symBase/symMsg cache the
	// per-process base components and buffered-message term sums.
	sym     *Symmetry
	symfp   uint64
	symBase []uint64
	symMsg  []uint64

	// pk, when non-nil, switches the configuration to the packed engine
	// (see packed.go): states/buffers stay nil and process records live in
	// the flat pstates slice (n stride-pwords records) with buffered
	// messages in pbuf. Everything else — crash flags, decisions, fault
	// counts, fingerprint caches, symmetry caches — is shared between the
	// two representations, so the fingerprint and symmetry maintenance is
	// engine-agnostic. psend is the send-membership bitmask of a restricted
	// algorithm; pstep is the scratch plan of applyPacked, allocated on the
	// first in-place step and never copied by a clone.
	pk      Packer
	psend   uint64
	pwords  int
	pstates []uint64
	pbuf    [][]PackedMsg
	pstep   *Successor
}

// NewConfiguration builds the initial configuration for algorithm a with the
// given proposal values (inputs[p-1] is x_p). All buffers start empty and no
// process has crashed, as required of initial configurations.
func NewConfiguration(a Algorithm, inputs []Value) *Configuration {
	n := len(inputs)
	c := &Configuration{
		n:         n,
		states:    make([]State, n),
		buffers:   make([][]Message, n),
		crashed:   make([]bool, n),
		decisions: make([]Value, n),
		nextMsgID: 1,
	}
	for i := 0; i < n; i++ {
		c.states[i] = a.Init(n, ProcessID(i+1), inputs[i])
		c.decisions[i] = NoValue
		if v, ok := c.states[i].Decided(); ok {
			c.decisions[i] = v
		}
	}
	c.recomputeFingerprint()
	return c
}

// N returns the number of processes.
func (c *Configuration) N() int { return c.n }

// Time returns the global time, i.e. the number of steps taken so far.
func (c *Configuration) Time() int { return c.time }

// State returns the local state of process p. On a packed configuration it
// materializes the state from the packed record (allocating) — an
// inspection view for debug/explain paths, not a hot-path accessor there.
func (c *Configuration) State(p ProcessID) State {
	if c.pk != nil {
		return c.pk.Unpack(c.prec(int(p)-1), int(p)-1)
	}
	return c.states[p-1]
}

// Crashed reports whether process p has taken its final step.
func (c *Configuration) Crashed(p ProcessID) bool { return c.crashed[p-1] }

// Decision returns the write-once output of process p and whether it has
// decided.
func (c *Configuration) Decision(p ProcessID) (Value, bool) {
	v := c.decisions[p-1]
	return v, v != NoValue
}

// Buffer returns a copy of the pending messages addressed to p, in sending
// order. Hot paths that only read the buffer should use BufferView. On a
// packed configuration the messages are materialized from their packed
// form.
func (c *Configuration) Buffer(p ProcessID) []Message {
	if c.pk != nil {
		pb := c.pbuf[p-1]
		out := make([]Message, len(pb))
		for j, m := range pb {
			out[j] = c.unpackMessage(int(p)-1, m)
		}
		return out
	}
	buf := c.buffers[p-1]
	out := make([]Message, len(buf))
	copy(out, buf)
	return out
}

// BufferView returns the live slice of pending messages addressed to p, in
// sending order, without copying. The view is read-only and is invalidated
// by the next Apply/ApplyQuiet/CloneInto on c; callers that need the
// messages to outlive the configuration must use Buffer. On a packed
// configuration there is no pointer-based buffer to view, so this
// materializes a copy like Buffer (debug paths only; hot paths on packed
// configurations use BufferSize/OldestMessageID/AppendDeliveryIDs).
func (c *Configuration) BufferView(p ProcessID) []Message {
	if c.pk != nil {
		return c.Buffer(p)
	}
	return c.buffers[p-1]
}

// BufferSize returns the number of pending messages addressed to p without
// copying.
func (c *Configuration) BufferSize(p ProcessID) int {
	if c.pk != nil {
		return len(c.pbuf[p-1])
	}
	return len(c.buffers[p-1])
}

// Processes returns the ids 1..n as a fresh slice the caller may modify.
// Loops that only iterate should use ProcessIDs, which allocates nothing.
func (c *Configuration) Processes() []ProcessID {
	out := make([]ProcessID, c.n)
	copy(out, sharedProcessIDs(c.n))
	return out
}

// ProcessIDs returns the ids 1..n as a shared, read-only slice: process ids
// are the same for every configuration of a given size, so repeated calls
// in scheduler and analysis loops allocate nothing. Callers must not modify
// the returned slice (its capacity is clipped, so appending is safe).
func (c *Configuration) ProcessIDs() []ProcessID { return sharedProcessIDs(c.n) }

// AllDecided reports whether every process in ps has decided or crashed.
func (c *Configuration) AllDecided(ps []ProcessID) bool {
	for _, p := range ps {
		if c.decisions[p-1] == NoValue && !c.crashed[p-1] {
			return false
		}
	}
	return true
}

// DistinctDecisions returns the set of distinct decision values across all
// processes (correct or faulty — the k-agreement property of Section II-A
// binds faulty processes' decisions too), in ascending order.
func (c *Configuration) DistinctDecisions() []Value {
	seen := make(map[Value]bool)
	for _, v := range c.decisions {
		if v != NoValue {
			seen[v] = true
		}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the configuration. States and message
// payloads are immutable by contract and therefore shared.
func (c *Configuration) Clone() *Configuration {
	if c.pk != nil {
		return c.clonePacked(nil)
	}
	cp := &Configuration{
		n:         c.n,
		states:    append([]State(nil), c.states...),
		buffers:   make([][]Message, c.n),
		crashed:   append([]bool(nil), c.crashed...),
		decisions: append([]Value(nil), c.decisions...),
		time:      c.time,
		nextMsgID: c.nextMsgID,
		faults:    append([]int32(nil), c.faults...),
		fp:        c.fp,
		procFP:    append([]uint64(nil), c.procFP...),
		sym:       c.sym,
		symfp:     c.symfp,
		symBase:   append([]uint64(nil), c.symBase...),
		symMsg:    append([]uint64(nil), c.symMsg...),
	}
	for i, buf := range c.buffers {
		cp.buffers[i] = append([]Message(nil), buf...)
	}
	return cp
}

// clonePacked is Clone for the packed engine. All the fixed-width uint64
// caches — procFP, the symmetry caches, the packed records — are carved out
// of one slab, and every buffered message out of one flat PackedMsg slab,
// with capacity-capped subslices so a later append cannot bleed into a
// neighbour. None of the uint64 regions ever grows, so sharing the slab is
// permanent; a buffer region that grows (new sends) reallocates away from
// the slab on its own. A clone made to commit the plan s (nil for a plain
// clone) reserves room in each buffer region for the messages s sends
// there.
func (c *Configuration) clonePacked(s *Successor) *Configuration {
	n := c.n
	cp := &Configuration{
		n:         n,
		crashed:   append([]bool(nil), c.crashed...),
		decisions: append([]Value(nil), c.decisions...),
		time:      c.time,
		nextMsgID: c.nextMsgID,
		faults:    append([]int32(nil), c.faults...),
		fp:        c.fp,
		sym:       c.sym,
		symfp:     c.symfp,
		pk:        c.pk,
		psend:     c.psend,
		pwords:    c.pwords,
	}
	words := n + n*c.pwords
	if c.sym != nil {
		words += 2 * n
	}
	slab := make([]uint64, words)
	off := 0
	carve := func(src []uint64) []uint64 {
		s := slab[off : off+len(src) : off+len(src)]
		copy(s, src)
		off += len(src)
		return s
	}
	cp.procFP = carve(c.procFP)
	if c.sym != nil {
		cp.symBase = carve(c.symBase)
		cp.symMsg = carve(c.symMsg)
	}
	cp.pstates = carve(c.pstates)
	cp.pbuf = make([][]PackedMsg, n)
	total := 0
	for i, buf := range c.pbuf {
		total += len(buf) + s.sentTo(i)
	}
	if total > 0 {
		msgs := make([]PackedMsg, total)
		moff := 0
		for i, buf := range c.pbuf {
			end := moff + len(buf) + s.sentTo(i)
			if end == moff {
				continue
			}
			dst := msgs[moff : moff+len(buf) : end]
			copy(dst, buf)
			cp.pbuf[i] = dst
			moff = end
		}
	}
	return cp
}

// CloneInto copies c into dst, reusing dst's allocations where capacities
// allow, and returns dst. A nil dst behaves like Clone. It is the pooled
// clone behind Successor.Commit: a configuration retired from a search can
// be recycled as the destination of the next commit, keeping the search's
// allocation rate flat in the number of visits.
func (c *Configuration) CloneInto(dst *Configuration) *Configuration {
	if dst == nil || dst == c {
		return c.Clone()
	}
	dst.n = c.n
	dst.time = c.time
	dst.nextMsgID = c.nextMsgID
	dst.fp = c.fp
	dst.sym = c.sym
	dst.symfp = c.symfp
	dst.states = append(dst.states[:0], c.states...)
	dst.crashed = append(dst.crashed[:0], c.crashed...)
	dst.decisions = append(dst.decisions[:0], c.decisions...)
	dst.faults = append(dst.faults[:0], c.faults...)
	dst.procFP = append(dst.procFP[:0], c.procFP...)
	dst.symBase = append(dst.symBase[:0], c.symBase...)
	dst.symMsg = append(dst.symMsg[:0], c.symMsg...)
	dst.pk = c.pk
	dst.psend = c.psend
	dst.pwords = c.pwords
	if c.pk != nil {
		dst.pstates = append(dst.pstates[:0], c.pstates...)
		if cap(dst.pbuf) < c.n {
			dst.pbuf = make([][]PackedMsg, c.n)
		}
		dst.pbuf = dst.pbuf[:c.n]
		for i, buf := range c.pbuf {
			dst.pbuf[i] = append(dst.pbuf[i][:0], buf...)
		}
		// dst's stale pointer buffers (if it was ever a pointer clone) are
		// never read while dst.pk is set, so the pointer-buffer block below
		// is skipped entirely — c.buffers is nil here anyway.
		return dst
	}
	if cap(dst.buffers) < c.n {
		dst.buffers = make([][]Message, c.n)
	}
	dst.buffers = dst.buffers[:c.n]
	for i, buf := range c.buffers {
		dst.buffers[i] = append(dst.buffers[i][:0], buf...)
	}
	return dst
}

// Key returns a deterministic encoding of the configuration: all local
// states and all buffer contents. Two configurations with equal keys are
// behaviourally identical for every deterministic algorithm; package explore
// uses keys to detect revisited configurations. Time and message ids are
// excluded on purpose — they do not influence future behaviour.
func (c *Configuration) Key() string {
	if c.pk != nil {
		return c.packedKey()
	}
	var b strings.Builder
	for i, s := range c.states {
		fmt.Fprintf(&b, "p%d[", i+1)
		if c.crashed[i] {
			b.WriteString("X;")
		}
		if f := c.faultCount(i); f != 0 {
			// Spent fault budget changes the adversary's remaining choices,
			// so it is part of behavioural identity — exactly like the crash
			// flag. Zero counts add nothing: crash-only keys are unchanged.
			fmt.Fprintf(&b, "F%d;", f)
		}
		b.WriteString(s.Key())
		b.WriteString("]{")
		// Buffers are multisets from the process's point of view: the
		// scheduler can deliver any subset in any order. Sort message keys so
		// that configurations differing only in arrival order coincide.
		keys := make([]string, len(c.buffers[i]))
		for j, m := range c.buffers[i] {
			keys[j] = m.Key()
		}
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, "|"))
		b.WriteString("}")
	}
	return b.String()
}

// packedKey is Key over the packed encoding: it materializes states and
// payloads slot by slot, producing the byte-identical string the pointer
// engine would (a restriction wrapper delegates Key to the inner state, so
// unpacking to the inner state preserves equality).
func (c *Configuration) packedKey() string {
	var b strings.Builder
	for i := 0; i < c.n; i++ {
		fmt.Fprintf(&b, "p%d[", i+1)
		if c.crashed[i] {
			b.WriteString("X;")
		}
		if f := c.faultCount(i); f != 0 {
			fmt.Fprintf(&b, "F%d;", f)
		}
		b.WriteString(c.pk.Unpack(c.prec(i), i).Key())
		b.WriteString("]{")
		keys := make([]string, len(c.pbuf[i]))
		for j, m := range c.pbuf[i] {
			keys[j] = c.unpackMessage(i, m).Key()
		}
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, "|"))
		b.WriteString("}")
	}
	return b.String()
}

// StepRequest is the scheduler's choice for one atomic step: the process to
// step, the ids of buffered messages to deliver (the subset L, possibly
// empty), the failure-detector value to present (nil when the model has no
// detector), and the crash directive. When Crash is true this is p's final
// step and OmitTo lists the receivers to which the final step's messages are
// dropped (MASYNC admissibility clause (2) allows omitting sends to a subset
// of receivers in the very last step).
type StepRequest struct {
	Proc    ProcessID
	Deliver []int64
	FD      FDValue
	Crash   bool
	OmitTo  map[ProcessID]bool

	// OmitSends drops every send of this step before it reaches a buffer (a
	// send-omission fault event, FaultSendOmission). DropDeliver consumes
	// the Deliver subset from the buffer without handing it to the process —
	// the messages are lost (a receive-omission fault event,
	// FaultReceiveOmission). Corrupt replaces the payload of every send with
	// its deterministic corrupted variant (a Byzantine value fault,
	// FaultByzantine; see Corruptible). At most one may be set, none may be
	// combined with Crash or SilentCrash, and the event is charged to the
	// process's fault count only when it had an effect (see faults.go).
	OmitSends   bool
	DropDeliver bool
	Corrupt     bool

	// SilentCrash marks the process as crashed without executing a step:
	// the process is in F(t) for the current time t onward and, if it never
	// stepped before, it is initially dead (in F(0)). No transition runs, no
	// messages are sent, and global time does not advance — silently
	// crashing is not a step of the run.
	SilentCrash bool
}

// DeliverAll returns the ids of every message pending for p, for building
// step requests that flush the buffer.
func (c *Configuration) DeliverAll(p ProcessID) []int64 {
	return c.AppendDeliveryIDs(nil, p)
}

// AppendDeliveryIDs appends the ids of every message pending for p to dst
// (in buffer order) and returns the extended slice. Passing a reused scratch
// slice avoids the per-call allocation of DeliverAll on hot paths.
func (c *Configuration) AppendDeliveryIDs(dst []int64, p ProcessID) []int64 {
	if c.pk != nil {
		for i := range c.pbuf[p-1] {
			dst = append(dst, c.pbuf[p-1][i].ID)
		}
		return dst
	}
	for i := range c.buffers[p-1] {
		dst = append(dst, c.buffers[p-1][i].ID)
	}
	return dst
}

// OldestMessageID returns the id of the oldest pending message for p,
// without copying the buffer; ok is false when the buffer is empty.
func (c *Configuration) OldestMessageID(p ProcessID) (id int64, ok bool) {
	if c.pk != nil {
		buf := c.pbuf[p-1]
		if len(buf) == 0 {
			return 0, false
		}
		return buf[0].ID, true
	}
	buf := c.buffers[p-1]
	if len(buf) == 0 {
		return 0, false
	}
	return buf[0].ID, true
}

// Disagreement reports whether two processes have decided different values —
// the disagreement-witness predicate, without materializing the distinct
// decision set.
func (c *Configuration) Disagreement() bool {
	first := NoValue
	for _, v := range c.decisions {
		if v == NoValue {
			continue
		}
		if first == NoValue {
			first = v
		} else if v != first {
			return true
		}
	}
	return false
}

// Apply executes one atomic step in place and returns the step's event
// record. It enforces the model's sanity rules: the process must exist and
// not have crashed, delivered ids must be pending for the process, and
// decisions are write-once.
func (c *Configuration) Apply(req StepRequest) (Event, error) {
	return c.apply(req, true)
}

// ApplyQuiet executes one atomic step exactly like Apply but skips
// materializing the event record (state-key string, sent/delivered
// bookkeeping). It is the step driver for exploration hot paths that only
// need the successor configuration; recorded runs keep using Apply.
func (c *Configuration) ApplyQuiet(req StepRequest) error {
	_, err := c.apply(req, false)
	return err
}

func (c *Configuration) apply(req StepRequest, record bool) (Event, error) {
	if c.pk != nil {
		// The packed engine never materializes events (witness replay runs
		// on the pointer engine); record is accepted and ignored.
		return c.applyPacked(req)
	}
	if err := c.checkStep(req); err != nil {
		return Event{}, err
	}
	p := req.Proc
	i := int(p) - 1

	if req.SilentCrash {
		c.crashed[i] = true
		c.refreshProc(i)
		if !record {
			return Event{}, nil
		}
		return Event{
			Time:     c.time,
			Proc:     p,
			StateKey: c.states[i].Key(),
			Crashed:  true,
			Silent:   true,
		}, nil
	}

	delivered, err := c.take(i, req.Deliver)
	if err != nil {
		return Event{}, err
	}

	faulted := false
	in := Input{Time: c.time, Delivered: delivered, FD: req.FD}
	if req.DropDeliver && len(delivered) > 0 {
		// Receive omission: the messages left the buffer but the process
		// never sees them. The event still records them as consumed.
		in.Delivered = nil
		faulted = true
	}
	next, sends := c.states[i].Step(in)
	if next == nil {
		return Event{}, fmt.Errorf("sim: process %d returned nil state", p)
	}

	prevDecision := c.decisions[i]
	c.states[i] = next
	if v, ok := next.Decided(); ok {
		if v == NoValue {
			return Event{}, fmt.Errorf("sim: process %d decided the reserved NoValue", p)
		}
		if prevDecision != NoValue && prevDecision != v {
			return Event{}, fmt.Errorf("sim: process %d changed decision %d -> %d", p, prevDecision, v)
		}
		c.decisions[i] = v
	} else if prevDecision != NoValue {
		return Event{}, fmt.Errorf("sim: process %d retracted its decision", p)
	}

	var sent []Message
	if record {
		sent = make([]Message, 0, len(sends))
	}
	for _, snd := range sends {
		if snd.To < 1 || int(snd.To) > c.n {
			return Event{}, fmt.Errorf("sim: process %d sent to unknown process %d", p, snd.To)
		}
		if snd.Payload == nil {
			return Event{}, fmt.Errorf("sim: process %d sent nil payload", p)
		}
		if req.Crash && req.OmitTo[snd.To] {
			continue
		}
		if req.OmitSends {
			// Send omission: the send is validated but never enqueued.
			faulted = true
			continue
		}
		payload := snd.Payload
		if req.Corrupt {
			payload = corruptPayload(payload)
			faulted = true
		}
		m := Message{
			ID:      c.nextMsgID,
			From:    p,
			To:      snd.To,
			SentAt:  c.time,
			Payload: payload,
		}
		m.fp = msgComponent(int(snd.To)-1, &m)
		c.fp += m.fp
		if c.sym != nil {
			m.sfp = symMsgTerm(c.sym, &m)
			c.symAddMsg(int(snd.To)-1, m.sfp)
		}
		c.nextMsgID++
		c.buffers[snd.To-1] = append(c.buffers[snd.To-1], m)
		if record {
			sent = append(sent, m)
		}
	}

	if req.Crash {
		c.crashed[i] = true
	}
	if faulted {
		c.bumpFault(i)
	}
	c.refreshProc(i)
	c.time++

	if !record {
		return Event{}, nil
	}
	ev := Event{
		Time:      c.time - 1,
		Proc:      p,
		Delivered: delivered,
		FD:        req.FD,
		Sent:      sent,
		StateKey:  next.Key(),
		Crashed:   req.Crash,
	}
	// Only an effective fault step is recorded on the event: an ineffective
	// one (nothing dropped, nothing corrupted) is bit-identical to its plain
	// twin, so replaying it without the fault flag reproduces the same
	// configuration and the event stream stays free of phantom fault marks.
	if faulted {
		switch {
		case req.OmitSends:
			ev.Fault = FaultSendOmission
		case req.DropDeliver:
			ev.Fault = FaultReceiveOmission
		case req.Corrupt:
			ev.Fault = FaultByzantine
		}
	}
	if v, ok := next.Decided(); ok {
		ev.Decision, ev.Decided = v, true
	}
	return ev, nil
}

// checkStep enforces the rules every step request must pass on either
// engine: the process exists and has not crashed, and the request asks for
// at most one fault action, never together with a crash.
func (c *Configuration) checkStep(req StepRequest) error {
	p := req.Proc
	if p < 1 || int(p) > c.n {
		return fmt.Errorf("sim: step for unknown process %d", p)
	}
	if c.crashed[p-1] {
		return fmt.Errorf("sim: process %d stepped after crashing", p)
	}
	nfaults := 0
	if req.OmitSends {
		nfaults++
	}
	if req.DropDeliver {
		nfaults++
	}
	if req.Corrupt {
		nfaults++
	}
	if nfaults > 1 {
		return fmt.Errorf("sim: process %d step combines multiple fault actions", p)
	}
	if nfaults > 0 && (req.Crash || req.SilentCrash) {
		return fmt.Errorf("sim: process %d step combines a fault action with a crash", p)
	}
	return nil
}

// take removes the messages with the given ids from buffer i and returns
// them in buffer order. The returned slice never aliases the live buffer:
// delivered messages escape into Events and step Inputs, while the buffer's
// backing array is reused for future sends.
func (c *Configuration) take(i int, ids []int64) ([]Message, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	buf := c.buffers[i]
	// Fast path: ids matches a buffer prefix in order — the shape produced
	// by DeliverAll / AppendDeliveryIDs ("flush") and OldestMessageID
	// ("oldest"), which are all the delivery patterns the explorer uses.
	if len(ids) <= len(buf) {
		match := true
		for j, id := range ids {
			if buf[j].ID != id {
				match = false
				break
			}
		}
		if match {
			taken := make([]Message, len(ids))
			copy(taken, buf[:len(ids)])
			for j := range taken {
				c.fp -= taken[j].fp
				if c.sym != nil {
					c.symAddMsg(i, -taken[j].sfp)
				}
			}
			c.buffers[i] = append(buf[:0], buf[len(ids):]...)
			return taken, nil
		}
	}
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("sim: duplicate delivery of message %d", id)
		}
		want[id] = true
	}
	taken := make([]Message, 0, len(ids))
	restCap := len(buf) - len(ids)
	if restCap < 0 {
		restCap = 0
	}
	rest := make([]Message, 0, restCap)
	for _, m := range buf {
		if want[m.ID] {
			taken = append(taken, m)
			delete(want, m.ID)
		} else {
			rest = append(rest, m)
		}
	}
	if len(want) > 0 {
		missing := make([]int64, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Slice(missing, func(a, b int) bool { return missing[a] < missing[b] })
		return nil, fmt.Errorf("sim: messages %v not pending for process %d", missing, i+1)
	}
	for j := range taken {
		c.fp -= taken[j].fp
		if c.sym != nil {
			c.symAddMsg(i, -taken[j].sfp)
		}
	}
	c.buffers[i] = rest
	return taken, nil
}
