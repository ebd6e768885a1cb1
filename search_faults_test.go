package kset

import (
	"strings"
	"testing"

	"kset/internal/testutil"
)

// TestSearchFaultsFacadeParity proves Options.Faults behaves on the public
// facade exactly as the substrate promises: the empty string and the
// explicit "crash" spelling drive bit-identical searches (stats and
// verdict), and arming a fault model only strengthens the adversary — a
// crash-only witness stays findable, and its replayed run carries the
// armed model's fault events when the adversary uses them.
func TestSearchFaultsFacadeParity(t *testing.T) {
	inputs := DistinctInputs(3)
	live := []ProcessID{1, 2, 3}

	plainW, plainFound := findFailure(t, Options{}, NewMinWait(1), inputs, live, 1, 0)
	crashW, crashFound := findFailure(t, Options{Faults: "crash"}, NewMinWait(1), inputs, live, 1, 0)
	if crashFound != plainFound || crashW.Stats != plainW.Stats {
		t.Fatalf("Faults=crash diverged from empty: %+v/%t vs %+v/%t",
			crashW.Stats, crashFound, plainW.Stats, plainFound)
	}

	for _, spec := range []string{"send-omission:1:1", "receive-omission:1:1", "byzantine:1:1"} {
		w, found := findFailure(t, Options{Faults: spec}, NewMinWait(1), inputs, live, 1, 0)
		if found != plainFound {
			t.Fatalf("Faults=%s flipped the verdict: found=%t, crash-only %t", spec, found, plainFound)
		}
		if found {
			testutil.RevalidateWitness(t, w.Kind, w.Run)
		}
	}
}

// TestApplySearchConfigFaults pins the fault handling of search
// configuration: a valid spec reaches the Searcher's Options together with
// the other knobs, and an invalid one is rejected by NewSearcher and
// Options.Validate alike, naming the bad model.
func TestApplySearchConfigFaults(t *testing.T) {
	want := Options{Workers: 2, Faults: "send-omission:2:1", Store: "frontier"}
	s, err := NewSearcher(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Options(); got != want {
		t.Fatalf("config not kept: got %+v, want %+v", got, want)
	}

	for _, bad := range []string{"meteor", "crash:1"} {
		o := Options{Faults: bad}
		if _, err := NewSearcher(o); err == nil {
			t.Fatalf("NewSearcher accepted fault model %q", bad)
		}
		err := o.Validate()
		if err == nil {
			t.Fatalf("Validate accepted fault model %q", bad)
		}
		if bad == "meteor" && !strings.Contains(err.Error(), "meteor") {
			t.Fatalf("error %q does not name the bad model", err)
		}
	}
}
