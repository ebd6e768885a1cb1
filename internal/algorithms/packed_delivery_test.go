package algorithms

import (
	"fmt"
	"testing"

	"kset/internal/sim"
)

// prints is the four fingerprints of a configuration or planned successor.
type prints struct{ fp, live, canon, liveCanon uint64 }

func printsOf(f interface {
	Fingerprint() uint64
	LiveFingerprint() uint64
	Canonical64() uint64
	LiveCanonical64() uint64
}) prints {
	return prints{f.Fingerprint(), f.LiveFingerprint(), f.Canonical64(), f.LiveCanonical64()}
}

// TestPackedGeneralDelivery steps a packed and a pointer configuration of
// every packable algorithm through the same requests, among them the ones
// the explorer never makes: delivery subsets that are not a buffer prefix,
// given out of buffer order, a duplicate id and a missing id, alone and
// combined with crashes and the three fault flags. After every request the
// engines must agree on the error text, Key and the four fingerprints, and
// a plan of the request on the packed configuration must have predicted
// them. The explorer delivers only buffer prefixes, so this is the packed
// engine's one exercise of its general delivery path.
func TestPackedGeneralDelivery(t *testing.T) {
	inputs := []sim.Value{0, 0, 1, 1}
	all := []sim.ProcessID{1, 2, 3, 4}
	for _, c := range []struct {
		alg  sim.Algorithm
		live []sim.ProcessID
	}{
		{MinWait{F: 1}, all},
		{QuorumMin{}, all},
		{FirstHeard{}, all},
		{DecideOwn{}, all},
		{FLPKSet{F: 1}, all},
		{sim.Restrict(MinWait{F: 1}, []sim.ProcessID{1, 2, 4}), []sim.ProcessID{1, 2, 4}},
	} {
		t.Run(c.alg.Name(), func(t *testing.T) {
			ptr := sim.NewConfiguration(c.alg, inputs)
			pck, ok := sim.NewPackedConfiguration(c.alg, inputs)
			if !ok {
				t.Fatal("no packed encoding")
			}
			sym := sim.NewSymmetry(inputs, c.live)
			ptr.AttachSymmetry(sym)
			pck.AttachSymmetry(sym)
			var succ sim.Successor
			step := func(req sim.StepRequest) {
				t.Helper()
				planErr := pck.Plan(req, &succ)
				var planned prints
				if planErr == nil {
					planned = printsOf(&succ)
				}
				_, errp := ptr.Apply(req)
				_, errk := pck.Apply(req)
				if fmt.Sprint(errp) != fmt.Sprint(errk) || fmt.Sprint(planErr) != fmt.Sprint(errk) {
					t.Fatalf("%+v: pointer error %v, packed error %v, plan error %v", req, errp, errk, planErr)
				}
				if got, want := printsOf(pck), printsOf(ptr); got != want {
					t.Fatalf("%+v: packed fingerprints %+v, pointer %+v", req, got, want)
				}
				if errk == nil && planned != printsOf(pck) {
					t.Fatalf("%+v: planned fingerprints %+v, stepped %+v", req, planned, printsOf(pck))
				}
				if got, want := pck.Key(), ptr.Key(); got != want {
					t.Fatalf("%+v: packed key %q, pointer key %q", req, got, want)
				}
			}
			for _, p := range all {
				if !contains(c.live, p) {
					step(sim.StepRequest{Proc: p, SilentCrash: true})
				}
			}
			for _, p := range c.live {
				step(sim.StepRequest{Proc: p})
			}
			for r := 0; r < 6; r++ {
				for _, p := range c.live {
					if ptr.Crashed(p) {
						step(sim.StepRequest{Proc: p})
						continue
					}
					ids := ptr.DeliverAll(p)
					if len(ids) > 0 {
						step(sim.StepRequest{Proc: p, Deliver: []int64{ids[0], ids[0]}})
						step(sim.StepRequest{Proc: p, Deliver: []int64{1 << 40, ids[0], 1<<40 - 1}})
					}
					// A subset without the oldest message, in reverse buffer
					// order; a lone message is delivered as it is.
					var sub []int64
					switch {
					case len(ids) >= 3:
						sub = []int64{ids[len(ids)-1], ids[1]}
					case len(ids) == 2:
						sub = ids[1:]
					default:
						sub = ids
					}
					req := sim.StepRequest{Proc: p, Deliver: sub}
					switch (r + int(p)) % 5 {
					case 1:
						req.DropDeliver = true
					case 2:
						req.Corrupt = true
					case 3:
						req.OmitSends = true
					}
					if r == 2 && p == c.live[len(c.live)-1] {
						req = sim.StepRequest{Proc: p, Deliver: sub, Crash: true, OmitTo: map[sim.ProcessID]bool{1: true}}
					}
					step(req)
				}
			}
		})
	}
}

func contains(ps []sim.ProcessID, p sim.ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}
