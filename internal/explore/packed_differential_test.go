package explore

// Differential gate for the packed struct-of-arrays configuration engine,
// which New selects wherever the algorithm has a packer: for every instance
// shape the repository's searches care about — symmetry × POR × fault
// models — the packed engine must reproduce the pointer engine BIT FOR BIT:
// the same configurations, keys, and action enumerations step by step
// (TestPackedConfigurationLockstep), and the same found flags, witnesses,
// stats, visited sets, and truncation points at every store and worker
// count (TestPackedSearchMatrix runs these cells on both engines against
// the kernel golden table). Together with FuzzPackedParity this is the
// proof obligation that lets the engine be chosen per algorithm, with no
// knob, excluded from search digests, and shared by cached and
// checkpointed searches.

import (
	"fmt"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

// packedDiffCell is one point of the packed differential matrix.
type packedDiffCell struct {
	inst     diffInstance
	symmetry bool
	por      bool
	faults   FaultAdversary
}

// onEngine returns e on the chosen configuration engine: packed keeps the
// engine the explorer picks, !packed forces the pointer engine through the
// test seam.
func onEngine(e *Explorer, packed bool) *Explorer {
	e.pointer = !packed
	return e
}

// explorer builds the cell's serial explorer on the chosen engine.
func (c packedDiffCell) explorer(packed bool) *Explorer {
	return c.row("disagreement").explorer(goldenConfig{StoreInMemory, 1, packed})
}

// packedDiffCells spans the handwritten instances across the reduction
// modes, plus fault-adversary arms on the cheapest instance (every fault
// model exercises a distinct packed code path: send omission drops packed
// sends, receive omission drops packed deliveries, Byzantine sets the
// Corrupt flag the packers must ignore and the byz hash chain must cover).
func packedDiffCells() []packedDiffCell {
	var cells []packedDiffCell
	for _, d := range diffInstances() {
		cells = append(cells,
			packedDiffCell{inst: d},
			packedDiffCell{inst: d, symmetry: true},
			packedDiffCell{inst: d, por: true},
			packedDiffCell{inst: d, symmetry: true, por: true},
		)
	}
	small := diffInstance{"minwait-n3-mixed", algorithms.MinWait{F: 1},
		[]sim.Value{0, 0, 1}, []sim.ProcessID{1, 2, 3}, 1}
	for _, model := range []sim.FaultModel{sim.FaultSendOmission, sim.FaultReceiveOmission, sim.FaultByzantine} {
		fa := FaultAdversary{Model: model, Budget: 1, MaxFaulty: 1}
		cells = append(cells,
			packedDiffCell{inst: small, faults: fa},
			packedDiffCell{inst: small, symmetry: true, faults: fa},
		)
	}
	return cells
}

func (c packedDiffCell) name() string {
	s := c.inst.name
	if c.symmetry {
		s += "+sym"
	}
	if c.por {
		s += "+por"
	}
	if c.faults.Model != sim.FaultCrash {
		s += "+" + c.faults.Model.String()
	}
	return s
}

// TestPackedEngineStandsDown pins the explorer's engine choice: with zero
// Options the five algorithms that have a packer search on the packed
// engine, and the rest — algorithms without one, systems beyond 64
// processes, and any explorer the test seam puts on the pointer engine —
// on the pointer engine, from the initial configuration on.
func TestPackedEngineStandsDown(t *testing.T) {
	inputs := []sim.Value{0, 1, 2}
	wide := make([]sim.Value, 65)
	for _, c := range []struct {
		name   string
		e      *Explorer
		packed bool
	}{
		{"minwait", New(algorithms.MinWait{F: 1}, inputs, Options{}), true},
		{"quorummin", New(algorithms.QuorumMin{}, inputs, Options{}), true},
		{"firstheard", New(algorithms.FirstHeard{}, inputs, Options{}), true},
		{"decideown", New(algorithms.DecideOwn{}, inputs, Options{}), true},
		{"flpkset", New(algorithms.FLPKSet{F: 1}, inputs, Options{}), true},
		{"sigmaomega", New(algorithms.SigmaOmega{}, inputs, Options{}), false},
		{"roundflood", New(algorithms.RoundFlood{F: 1}, inputs, Options{}), false},
		{"singletonquorum", New(algorithms.SingletonQuorum{}, inputs, Options{}), false},
		{"unpackable", New(unpackable{algorithms.MinWait{F: 1}}, inputs, Options{}), false},
		{"minwait-n65", New(algorithms.MinWait{F: 1}, wide, Options{}), false},
		{"minwait-seam", onEngine(New(algorithms.MinWait{F: 1}, inputs, Options{}), false), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := c.e.initial()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Packed() != c.packed {
				t.Fatalf("initial configuration packed=%t, want %t", cfg.Packed(), c.packed)
			}
		})
	}
}

// unpackable hides an algorithm's NewPacker method.
type unpackable struct{ sim.Algorithm }

// nodePrints is the four fingerprints a search key may read.
type nodePrints struct{ fp, live, canon, liveCanon uint64 }

// TestPackedConfigurationLockstep drives the packed and pointer engines
// through the same breadth-first action tree and asserts, configuration by
// configuration, that every observable the search keys on is bit-identical:
// Key, Fingerprint, LiveFingerprint, and (under symmetry) Canonical64 and
// LiveCanonical64, plus decision vectors and buffer sizes. Every action is
// planned before it is committed, on both engines: a plan must leave its
// parent's key and fingerprints as they were and predict the committed
// configuration's fingerprints, and an inapplicable request must be
// rejected by both engines with the same error.
func TestPackedConfigurationLockstep(t *testing.T) {
	for _, c := range packedDiffCells() {
		t.Run(c.name(), func(t *testing.T) {
			ptr := c.explorer(false)
			pck := c.explorer(true)
			p0, err := ptr.initial()
			if err != nil {
				t.Fatal(err)
			}
			k0, err := pck.initial()
			if err != nil {
				t.Fatal(err)
			}
			if !k0.Packed() {
				t.Fatal("packed initial configuration is not packed")
			}
			type pair struct {
				ptr, pck *sim.Configuration
				crashes  int
			}
			printsOf := func(f fingerprints) nodePrints {
				p := nodePrints{fp: f.Fingerprint(), live: f.LiveFingerprint()}
				if c.symmetry {
					p.canon, p.liveCanon = f.Canonical64(), f.LiveCanonical64()
				}
				return p
			}
			comparePair := func(path string, p pair) {
				t.Helper()
				if got, want := p.pck.Fingerprint(), p.ptr.Fingerprint(); got != want {
					t.Fatalf("%s: packed fingerprint %#x, pointer %#x", path, got, want)
				}
				if got, want := p.pck.LiveFingerprint(), p.ptr.LiveFingerprint(); got != want {
					t.Fatalf("%s: packed live fingerprint %#x, pointer %#x", path, got, want)
				}
				if c.symmetry {
					if got, want := p.pck.Canonical64(), p.ptr.Canonical64(); got != want {
						t.Fatalf("%s: packed canonical %#x, pointer %#x", path, got, want)
					}
					if got, want := p.pck.LiveCanonical64(), p.ptr.LiveCanonical64(); got != want {
						t.Fatalf("%s: packed live canonical %#x, pointer %#x", path, got, want)
					}
				}
				if got, want := p.pck.Key(), p.ptr.Key(); got != want {
					t.Fatalf("%s: packed key %q, pointer key %q", path, got, want)
				}
			}
			comparePair("initial", pair{ptr: p0, pck: k0})
			visited := map[uint64]bool{cfgKey(p0, 0): true}
			queue := []pair{{ptr: p0, pck: k0}}
			const maxConfigs = 60000
			for len(queue) > 0 {
				if len(visited) > maxConfigs {
					t.Fatalf("state space exceeds %d configurations; shrink the instance", maxConfigs)
				}
				cur := queue[0]
				queue = queue[1:]
				acts := append([]action(nil), ptr.actions(cur.ptr, cur.crashes)...)
				pacts := pck.actions(cur.pck, cur.crashes)
				if fmt.Sprint(acts) != fmt.Sprint(pacts) {
					t.Fatalf("action enumeration diverged:\npointer %v\npacked  %v", acts, pacts)
				}
				// An inapplicable request is rejected alike, and the parents
				// are left as they were.
				bad := sim.StepRequest{Proc: 1, Deliver: []int64{-1}}
				errp, errk := cur.ptr.Plan(bad, &ptr.sc.succ), cur.pck.Plan(bad, &pck.sc.succ)
				if errp == nil || errk == nil || errp.Error() != errk.Error() {
					t.Fatalf("plan(%+v): pointer error %v, packed error %v", bad, errp, errk)
				}
				parent := [2]nodePrints{printsOf(cur.ptr), printsOf(cur.pck)}
				parentKey := [2]string{cur.ptr.Key(), cur.pck.Key()}
				for _, act := range acts {
					okp := ptr.sc.plan(cur.ptr, act)
					okk := pck.sc.plan(cur.pck, act)
					if okp != okk {
						t.Fatalf("plan(%+v): pointer ok=%t, packed ok=%t", act, okp, okk)
					}
					for e, c := range [2]*sim.Configuration{cur.ptr, cur.pck} {
						if got := printsOf(c); got != parent[e] {
							t.Fatalf("plan(%+v) changed the parent's fingerprints on engine %d: %+v -> %+v", act, e, parent[e], got)
						}
						if got := c.Key(); got != parentKey[e] {
							t.Fatalf("plan(%+v) changed the parent's key on engine %d: %q -> %q", act, e, parentKey[e], got)
						}
					}
					if !okp {
						continue
					}
					planned := [2]nodePrints{printsOf(&ptr.sc.succ), printsOf(&pck.sc.succ)}
					np, nk := ptr.sc.commit(), pck.sc.commit()
					if got := printsOf(np); got != planned[0] {
						t.Fatalf("after %+v: pointer planned %+v, committed %+v", act, planned[0], got)
					}
					if got := printsOf(nk); got != planned[1] {
						t.Fatalf("after %+v: packed planned %+v, committed %+v", act, planned[1], got)
					}
					crashes := cur.crashes
					if act.Crash {
						crashes++
					}
					next := pair{ptr: np, pck: nk, crashes: crashes}
					comparePair(fmt.Sprintf("after %+v", act), next)
					if visited[cfgKey(np, crashes)] {
						ptr.release(np)
						pck.release(nk)
						continue
					}
					visited[cfgKey(np, crashes)] = true
					queue = append(queue, next)
				}
			}
		})
	}
}
