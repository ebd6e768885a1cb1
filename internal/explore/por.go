package explore

// This file implements the commutativity-based partial-order reduction
// behind Options.POR: an ample-set layer that, at each expansion, prunes
// adversary actions whose effect footprint is independent of an
// already-chosen sibling, while provably preserving every verdict the
// explorer computes — disagreement reachability, blocking reachability, and
// the reachable decision-value set (valence).
//
// # Footprints and independence
//
// An action (Proc, Mode, Crash, Omit) has the effect footprint
//
//	reads:  Proc's local state, Proc's buffer (Mode resolves the delivered
//	        message set against it);
//	writes: Proc's state/decision/crash flag, Proc's buffer (delivered
//	        messages are removed), and the buffers of every receiver of the
//	        step's sends.
//
// Two actions of distinct processes are independent — they commute exactly,
// reaching the same configuration in either order, and neither enables,
// disables, or re-resolves the other — if and only if neither step sends:
// sends are the only cross-process edge in the footprint (a send into q's
// buffer changes what q's DeliverOldest/DeliverAll resolve to, and can
// enable a delivery that was inapplicable). The explorer cannot predict a
// state's future sends in general, so the reduction keys on the opt-in
// sim.SendQuiescent interface: a configuration is *send-quiescent* when
// every live, non-crashed process's state proves it will never send again.
// Send quiescence is monotone by the interface contract, so it holds across
// the entire cone of reachable successors, where every pair of actions of
// distinct processes is therefore independent: footprints touch disjoint
// per-process slots, delivery resolutions read only the stepping process's
// own buffer (appends cannot happen — nobody sends), and crash flags are
// local. Omission sets are vacuous in the cone (there is nothing to omit),
// so crash-with-omissions duplicates crash and is dropped, and a
// DeliverOldest against a one-message buffer duplicates DeliverAll and is
// dropped likewise — both prunings remove actions with byte-identical
// successors, not merely equivalent ones.
//
// # The ample rule
//
// In a send-quiescent configuration the layer picks the *leader*: the
// smallest-id live, non-crashed process with a non-empty buffer. Only the
// leader's actions — every delivery mode, with and without a crash — are
// expanded; every action of every other process is pruned at this
// configuration. Pruning defers, it never loses: goal-relevant choices are
// preserved by commutation rather than by exemption. A crash against the
// remaining budget stays available — it commutes across the leader's steps
// (the budget bounds a count, which reordering preserves) and is expanded
// at the next configuration where the rule stands down, ultimately at the
// fully-drained configurations where no process has a non-empty buffer and
// nothing is pruned. A pruned process's pending decision step likewise has
// a purely local footprint and remains enabled, with an identical
// successor, in every explored extension.
//
// # Why no verdict is lost
//
// Soundness is a two-case commutation argument over any full-graph path π
// from a send-quiescent configuration c to a goal configuration g, by
// well-founded induction on the pair (pending messages at c, |π|):
//
//  1. π contains an action of the leader p. Every earlier action belongs to
//     another process and is independent of it (see above), so the p-action
//     commutes to the front — same delivered messages, same sends (none),
//     same final configuration g, and an unchanged crash multiset. Budget
//     admissibility survives the reordering: each crash still sees fewer
//     than the total number of crashes on π before it, and that total is
//     within budget. The front action is in the ample set, and the
//     remaining path is shorter.
//  2. π contains no action of p. Then p's non-empty buffer is untouched
//     along π, so g is not quiescent and π proves no blocking verdict;
//     prepending the ample action (p, DeliverAll) yields a path to a
//     configuration g' that carries every decision of g (decisions are
//     write-once and p's extra step can only add one), so disagreement and
//     valence verdicts survive, and the prepended step strictly decreases
//     the pending-message measure (it delivers >= 1 message, sends none,
//     and consumes no budget).
//
// Blocking verdicts need no second case: a quiescent configuration has
// every live buffer empty, so any path to one must drain the leader's
// buffer and falls under case 1. The reduced graph is a subgraph of the
// full graph, so no spurious verdict can appear either. When no process has
// a non-empty buffer, or some live state has not proven send quiescence, or
// the search queries a failure-detector oracle, nothing is pruned: oracle
// values may depend on global time and on other processes' crash flags, so
// commuting a step past a crash could change the detector output it
// observes, and the reduction conservatively stands down (Options.POR is a
// sound no-op for oracle searches such as the E5 detector-border sweep).
//
// # The crashed-slot quotient
//
// Independently of the pruning, reduced searches key their visited sets by
// sim.Configuration.LiveFingerprint (LiveCanonical64 under symmetry)
// instead of the plain fingerprint: a crashed process never steps again, so
// its absorbed local state and its undelivered buffered messages are
// behaviourally inert — no future step, delivery resolution, quiescence
// probe, or verdict predicate reads them; only the crash flag and the
// write-once decision (which binds faulty processes under k-agreement)
// remain observable. Two configurations equal up to inert crashed-slot
// content therefore have identical futures, and collapsing them is a sound
// quotient that removes the crash-timing junk the plain key keeps apart
// (the same process crashed before, during, or after draining its buffer,
// with the same decision outcome). This quotient is what makes the crash
// dimension of the search cheap; the ample rule is what serializes the
// delivery dimension.
//
// # Determinism
//
// porPlan is a pure function of the configuration's content (crash flags,
// buffer sizes, states) — it reads neither the visited set nor any search
// order — so the serial BFS/DFS, the kernel's parallel fan-out, and the
// valence/critical analyses all enumerate byte-identical action lists per
// configuration, and the bit-identity guarantee (same visited set, level
// logs, witness, and stats at every worker count) carries over to reduced
// searches unchanged. Composition with
// Options.Symmetry is sound for the same reason symmetry itself is: the
// commutation argument above is applied at each concretely explored
// configuration, the measure (pending messages) is orbit-invariant, and
// goal predicates are orbit-invariant for algorithms that opt into
// sim.SymHasher64.

import "kset/internal/sim"

// porPlan is the reduction decision for one expansion: whether the
// configuration is send-quiescent (enabling the duplicate-action prunings)
// and, if so, which process leads (NoProcess when every live buffer is
// empty — then nothing is pruned beyond duplicates).
type porPlan struct {
	frozen bool
	leader sim.ProcessID
}

// porPlan computes the reduction decision at cfg. It returns the inactive
// plan unless Options.POR is set, the search is oracle-free, and every
// live, non-crashed process has proven send quiescence.
func (e *Explorer) porPlan(cfg *sim.Configuration) porPlan {
	if !e.por {
		return porPlan{}
	}
	plan := porPlan{frozen: true}
	for _, p := range e.opts.Live {
		if cfg.Crashed(p) {
			continue
		}
		if !cfg.StateSendsDone(p) {
			return porPlan{}
		}
		if plan.leader == sim.NoProcess && cfg.BufferSize(p) > 0 {
			plan.leader = p
		}
	}
	return plan
}

// prunes reports whether the plan drops the action (p, mode) at a
// configuration where p's buffer holds bufsize messages. Duplicate-successor
// pruning (oldest == all on a one-message buffer) applies to every process;
// the ample pruning drops every action of every non-leader process — their
// crashes included, which deferral keeps reachable (see the file comment).
func (plan porPlan) prunes(p sim.ProcessID, mode DeliveryMode, bufsize int) bool {
	if !plan.frozen {
		return false
	}
	if mode == DeliverOldest && bufsize == 1 {
		return true
	}
	return plan.leader != sim.NoProcess && p != plan.leader
}
