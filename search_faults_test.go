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

// TestExperimentsHonourFaults runs E6 and E13 under the send-omission:1:1
// adversary: both experiments build their explorers from the Searcher, so
// the fault model reaches them. Crash-only, E6's [0 1 1] row has 2 stalling
// steps and E13 at n=4, f=2, budget 1 visits 520 states; with one omission
// fault the figures are 5 and 2,163, and E13's notes name the model.
func TestExperimentsHonourFaults(t *testing.T) {
	for _, c := range []struct {
		faults            string
		stalling, visited string
	}{
		{"", "2", "520"},
		{"send-omission:1:1", "5", "2163"},
	} {
		s, err := NewSearcher(Options{Faults: c.faults})
		if err != nil {
			t.Fatal(err)
		}
		e6, err := ExperimentBivalenceWith(s)
		if err != nil {
			t.Fatal(err)
		}
		if row := e6.Rows[2]; row[0] != "[0 1 1]" || row[5] != c.stalling {
			t.Fatalf("faults %q: E6 row %v, want [0 1 1] with %s stalling steps", c.faults, row, c.stalling)
		}
		e13, err := ExperimentBoundedExploration(E13Params{N: 4, F: 2, Budget: 1, InMemMaxConfigs: 100000, MaxConfigs: 100000, Search: s})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range e13.Rows {
			if row[5] != c.visited || row[6] != "exhausted" {
				t.Fatalf("faults %q: E13 row %v, want %s states visited exhaustively", c.faults, row, c.visited)
			}
		}
		if named := strings.Contains(e13.Notes[0], "send-omission:1:1"); named != (c.faults != "") {
			t.Fatalf("faults %q: E13 note %q", c.faults, e13.Notes[0])
		}
	}
}
