package explore

// FuzzExploreParity is the fuzzing arm of the reduction differential
// matrices: the fuzzer picks a small random instance — algorithm, system
// size, proposal vector, crash budget — and the target asserts that every
// reduction mode (symmetry, POR, both) reaches exactly the verdicts of the
// plain exhaustive search, with revalidating witnesses, equal valence sets,
// and no more visited configurations. The handwritten suites pin the known
// interesting shapes; the fuzzer hunts for input vectors nobody thought of.
// CI runs the target briefly (see the fuzz-smoke step); the seed corpus
// runs as ordinary tests on every `go test`.

import (
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

// fuzzInstance decodes the fuzzer's raw picks into an exhaustively
// explorable instance: 2-3 live processes, proposals from a 4-value
// universe, at most one crash.
func fuzzInstance(algPick, nPick, crashPick byte, inputBits uint16) diffInstance {
	n := 2 + int(nPick%2)
	inputs := make([]sim.Value, n)
	for i := range inputs {
		inputs[i] = sim.Value(int(inputBits>>(2*i)) & 3)
	}
	live := make([]sim.ProcessID, n)
	for i := range live {
		live[i] = sim.ProcessID(i + 1)
	}
	var alg sim.Algorithm
	var name string
	switch algPick % 4 {
	case 0:
		alg, name = algorithms.MinWait{F: 1}, "minwait"
	case 1:
		alg, name = algorithms.FLPKSet{F: 1}, "flpkset"
	case 2:
		alg, name = algorithms.FirstHeard{}, "firstheard"
	case 3:
		alg, name = algorithms.DecideOwn{}, "decideown"
	}
	return diffInstance{name, alg, inputs, live, int(crashPick % 2)}
}

// fuzzFaults decodes the fuzzer's fault pick into an adversary: the zero
// pick keeps the crash-only engine, the rest arm one non-crash model with
// the smallest budget (1 event, 1 faulty process) so the fuzzed state
// spaces stay exhaustively explorable.
func fuzzFaults(faultPick byte) FaultAdversary {
	switch faultPick % 4 {
	case 1:
		return FaultAdversary{Model: sim.FaultSendOmission, Budget: 1, MaxFaulty: 1}
	case 2:
		return FaultAdversary{Model: sim.FaultReceiveOmission, Budget: 1, MaxFaulty: 1}
	case 3:
		return FaultAdversary{Model: sim.FaultByzantine, Budget: 1, MaxFaulty: 1}
	}
	return FaultAdversary{}
}

func FuzzExploreParity(f *testing.F) {
	// One seed per algorithm, covering uniform and mixed inputs, with and
	// without a crash budget; the last three arm each non-crash fault model
	// so the reduction parity matrix fuzzes the fault-branching adversary
	// from the first corpus run.
	f.Add(byte(0), byte(1), byte(1), uint16(0b100100), byte(0)) // minwait n=3 mixed, crash
	f.Add(byte(0), byte(1), byte(0), uint16(0), byte(0))        // minwait n=3 uniform
	f.Add(byte(1), byte(0), byte(1), uint16(0b0100), byte(0))   // flpkset n=2 mixed, crash
	f.Add(byte(2), byte(1), byte(0), uint16(0b110000), byte(0)) // firstheard n=3
	f.Add(byte(3), byte(1), byte(1), uint16(0b010101), byte(0)) // decideown n=3 uniform, crash
	f.Add(byte(0), byte(1), byte(0), uint16(0b100100), byte(1)) // minwait n=3, send omission
	f.Add(byte(2), byte(1), byte(0), uint16(0b110000), byte(2)) // firstheard n=3, receive omission
	f.Add(byte(0), byte(0), byte(1), uint16(0b0100), byte(3))   // minwait n=2 crash, byzantine
	f.Fuzz(func(t *testing.T, algPick, nPick, crashPick byte, inputBits uint16, faultPick byte) {
		d := fuzzInstance(algPick, nPick, crashPick, inputBits)
		faults := fuzzFaults(faultPick)
		// Keep each exec well under the fuzzer's per-input hang limit:
		// instances whose plain search exceeds this budget (FLPKSet at n=3
		// with a crash runs past 40000 nodes) are skipped by the parity
		// checks below and pinned by the deterministic por_test suite
		// instead.
		const maxConfigs = 12000
		buildOn := func(symmetry, por bool, store Store, maxConfigs int) *Explorer {
			return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
				Live:       d.live,
				MaxCrashes: d.crashes,
				MaxConfigs: maxConfigs,
				Workers:    1,
				Symmetry:   symmetry,
				POR:        por,
				Faults:     faults,
				Store:      store,
			})
		}
		build := func(symmetry, por bool) *Explorer {
			return buildOn(symmetry, por, StoreInMemory, maxConfigs)
		}

		// The one-pass FindConsensusFailure must observe what
		// FindDisagreement followed by FindBlocking observes, plain and
		// reduced, on a store drawn from the input, at the exec's budget and
		// at a budget, also drawn from the input, that cuts the disagreement
		// search.
		store := Store(int(algPick/4) % 3)
		onePassParity := func(reduced bool, budget int) Stats {
			want, _, _, err := observeConsensusFailure(buildOn(reduced, reduced, store, budget), twoSearches, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			got, w, first, err := observeConsensusFailure(buildOn(reduced, reduced, store, budget), onePass, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("reduced=%t %v max=%d: one pass diverged from the two searches on %s %v crashes=%d:\n got %s\nwant %s",
					reduced, store, budget, d.name, d.inputs, d.crashes, got, want)
			}
			if w.Run != nil {
				testutil.RevalidateWitness(t, w.Kind, w.Run)
			}
			return first
		}
		for _, reduced := range []bool{false, true} {
			// Any budget below the disagreement search's visited count cuts
			// it.
			if first := onePassParity(reduced, maxConfigs); first.Visited > 1 {
				onePassParity(reduced, 1+int(inputBits>>6)%(first.Visited-1))
			}
		}
		modes := []struct {
			name          string
			symmetry, por bool
		}{
			{"sym", true, false},
			{"por", false, true},
			{"por+sym", true, true},
		}

		goals := []struct {
			name string
			goal goalFunc
		}{
			{"disagreement", disagreementGoal},
			{"blocking", blockingGoal},
		}
		for _, g := range goals {
			plainW, plainFound, err := build(false, false).search(g.goal, g.name)
			if err != nil {
				t.Fatal(err)
			}
			if plainW.Stats.Truncated {
				return // not exhaustively explorable; parity is not defined
			}
			for _, m := range modes {
				w, found, err := build(m.symmetry, m.por).search(g.goal, g.name)
				if err != nil {
					t.Fatal(err)
				}
				if w.Stats.Truncated {
					t.Fatalf("%s/%s: reduced search truncated where plain was exhaustive", m.name, g.name)
				}
				if found != plainFound {
					t.Fatalf("%s/%s verdict diverged on %s %v crashes=%d: reduced found=%t, plain found=%t",
						m.name, g.name, d.name, d.inputs, d.crashes, found, plainFound)
				}
				if w.Stats.Visited > plainW.Stats.Visited {
					t.Fatalf("%s/%s: reduced visited %d > plain %d", m.name, g.name, w.Stats.Visited, plainW.Stats.Visited)
				}
				if found {
					testutil.RevalidateWitness(t, w.Kind, w.Run)
				}
			}
		}

		plainVals, plainStats, err := build(false, false).Valence(0)
		if err != nil {
			t.Fatal(err)
		}
		if plainStats.Truncated {
			return
		}
		for _, m := range modes {
			vals, _, err := build(m.symmetry, m.por).Valence(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != len(plainVals) {
				t.Fatalf("%s valence diverged on %s %v: reduced %v, plain %v", m.name, d.name, d.inputs, vals, plainVals)
			}
			for i := range vals {
				if vals[i] != plainVals[i] {
					t.Fatalf("%s valence diverged on %s %v: reduced %v, plain %v", m.name, d.name, d.inputs, vals, plainVals)
				}
			}
		}
	})
}

// FuzzFaultParity is the fuzzing arm of the fault-model substrate's
// robustness guarantees. For a random small instance and a random fault
// adversary it asserts the two load-bearing invariants of the layer:
// crash-only bit-identity (an explicitly crash-spelled adversary drives the
// exact engine of the zero value — stats, witness detail, and scheduled
// run), and fault monotonicity (arming a fault model strictly grows the
// adversary's power, so a crash-only witness implies a fault-model witness,
// and every found witness revalidates by concrete replay). CI runs the
// target briefly; the seed corpus runs as ordinary tests on every `go test`.
func FuzzFaultParity(f *testing.F) {
	f.Add(byte(0), byte(1), byte(1), uint16(0b100100), byte(1)) // minwait n=3 mixed crash, send omission
	f.Add(byte(2), byte(1), byte(0), uint16(0b110000), byte(2)) // firstheard n=3, receive omission
	f.Add(byte(3), byte(1), byte(0), uint16(0b010101), byte(3)) // decideown n=3, byzantine
	f.Add(byte(1), byte(0), byte(1), uint16(0b0100), byte(1))   // flpkset n=2 crash, send omission
	f.Fuzz(func(t *testing.T, algPick, nPick, crashPick byte, inputBits uint16, faultPick byte) {
		d := fuzzInstance(algPick, nPick, crashPick, inputBits)
		build := func(fa FaultAdversary) *Explorer {
			return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
				Live:       d.live,
				MaxCrashes: d.crashes,
				MaxConfigs: 12000,
				Workers:    1,
				Faults:     fa,
			})
		}
		crashSpelled, err := ParseFaults("crash")
		if err != nil {
			t.Fatal(err)
		}
		goals := []struct {
			name string
			find func(*Explorer) (*Witness, bool, error)
		}{
			{"disagreement", (*Explorer).FindDisagreement},
			{"blocking", (*Explorer).FindBlocking},
		}
		for _, g := range goals {
			plainW, plainFound, err := g.find(build(FaultAdversary{}))
			if err != nil {
				t.Fatal(err)
			}
			spelledW, spelledFound, err := g.find(build(crashSpelled))
			if err != nil {
				t.Fatal(err)
			}
			if spelledFound != plainFound || spelledW.Stats != plainW.Stats || spelledW.Detail != plainW.Detail {
				t.Fatalf("%s: crash-spelled adversary diverged on %s %v: %+v/%t %q, zero %+v/%t %q",
					g.name, d.name, d.inputs, spelledW.Stats, spelledFound, spelledW.Detail,
					plainW.Stats, plainFound, plainW.Detail)
			}
			if plainW.Stats.Truncated {
				continue // not exhaustively explorable; monotonicity is not checkable
			}
			fa := fuzzFaults(faultPick)
			if fa.Model == sim.FaultCrash {
				continue
			}
			faultW, faultFound, err := g.find(build(fa))
			if err != nil {
				t.Fatal(err)
			}
			if plainFound && !faultFound {
				t.Fatalf("%s: crash-only witness exists on %s %v but the %s adversary (a superset) found none",
					g.name, d.name, d.inputs, fa.Model)
			}
			if faultFound {
				testutil.RevalidateWitness(t, faultW.Kind, faultW.Run)
				for _, ev := range faultW.Run.Events {
					if ev.Fault != sim.FaultCrash && ev.Fault != fa.Model {
						t.Fatalf("%s: witness replayed a %s event under the %s adversary", g.name, ev.Fault, fa.Model)
					}
				}
			} else if !faultW.Stats.Truncated && faultW.Stats.Visited < plainW.Stats.Visited {
				t.Fatalf("%s: exhaustive %s search visited %d < crash-only %d; the fault space contains the plain space",
					g.name, fa.Model, faultW.Stats.Visited, plainW.Stats.Visited)
			}
		}
	})
}

// FuzzPackedParity is the fuzzing arm of the packed-engine differential
// gate (see packed_differential_test.go): for a random small instance, a
// random fault adversary, and a random reduction mode, the packed
// struct-of-arrays engine must reproduce the pointer engine's searches
// bit for bit — found flags, stats (truncation points included), witness
// details, and scheduled witness runs, with found witnesses revalidating
// by concrete replay. CI runs the target briefly (see the fuzz-smoke
// step); the seed corpus runs as ordinary tests on every `go test`.
func FuzzPackedParity(f *testing.F) {
	// One seed per algorithm, plus one per non-crash fault model and one
	// per reduction mode, so every packed code path (corrupt-flag hashing,
	// omission branching, orbit-canonical packer tables, crash-normalized
	// keys) fuzzes from the first corpus run.
	f.Add(byte(0), byte(1), byte(1), uint16(0b100100), byte(0), byte(0)) // minwait n=3 mixed, crash
	f.Add(byte(1), byte(0), byte(1), uint16(0b0100), byte(0), byte(0))   // flpkset n=2 mixed, crash
	f.Add(byte(2), byte(1), byte(0), uint16(0b110000), byte(0), byte(0)) // firstheard n=3
	f.Add(byte(3), byte(1), byte(1), uint16(0b010101), byte(0), byte(0)) // decideown n=3, crash
	f.Add(byte(0), byte(1), byte(0), uint16(0b100100), byte(1), byte(1)) // minwait, send omission, sym
	f.Add(byte(2), byte(1), byte(0), uint16(0b110000), byte(2), byte(2)) // firstheard, receive omission, por
	f.Add(byte(0), byte(0), byte(1), uint16(0b0100), byte(3), byte(1))   // minwait n=2, byzantine, sym
	f.Add(byte(0), byte(1), byte(1), uint16(0), byte(0), byte(3))        // minwait uniform, crash, por+sym
	f.Fuzz(func(t *testing.T, algPick, nPick, crashPick byte, inputBits uint16, faultPick, modePick byte) {
		d := fuzzInstance(algPick, nPick, crashPick, inputBits)
		faults := fuzzFaults(faultPick)
		symmetry := modePick&1 != 0
		por := modePick&2 != 0
		build := func(packed bool) *Explorer {
			return onEngine(New(sim.Restrict(d.alg, d.live), d.inputs, Options{
				Live:       d.live,
				MaxCrashes: d.crashes,
				MaxConfigs: 12000,
				Workers:    1,
				Symmetry:   symmetry,
				POR:        por,
				Faults:     faults,
			}), packed)
		}
		goals := []struct {
			name string
			find func(*Explorer) (*Witness, bool, error)
		}{
			{"disagreement", (*Explorer).FindDisagreement},
			{"blocking", (*Explorer).FindBlocking},
		}
		for _, g := range goals {
			ptrW, ptrFound, err := g.find(build(false))
			if err != nil {
				t.Fatal(err)
			}
			pckW, pckFound, err := g.find(build(true))
			if err != nil {
				t.Fatal(err)
			}
			if pckFound != ptrFound {
				t.Fatalf("%s verdict diverged on %s %v crashes=%d: packed found=%t, pointer found=%t",
					g.name, d.name, d.inputs, d.crashes, pckFound, ptrFound)
			}
			if pckW.Stats != ptrW.Stats {
				t.Fatalf("%s stats diverged on %s %v: packed %+v, pointer %+v",
					g.name, d.name, d.inputs, pckW.Stats, ptrW.Stats)
			}
			if !pckFound {
				continue
			}
			if pckW.Detail != ptrW.Detail {
				t.Fatalf("%s detail diverged: packed %q, pointer %q", g.name, pckW.Detail, ptrW.Detail)
			}
			if got, want := runSignature(pckW.Run), runSignature(ptrW.Run); got != want {
				t.Fatalf("%s witness run diverged:\n got %s\nwant %s", g.name, got, want)
			}
			testutil.RevalidateWitness(t, pckW.Kind, pckW.Run)
		}
	})
}
