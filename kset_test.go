package kset

import (
	"context"
	"strings"
	"testing"

	"kset/internal/explore"
)

func TestDistinctInputs(t *testing.T) {
	in := DistinctInputs(5)
	if len(in) != 5 {
		t.Fatalf("len = %d", len(in))
	}
	seen := map[Value]bool{}
	for _, v := range in {
		if seen[v] {
			t.Fatalf("duplicate input %d", v)
		}
		seen[v] = true
	}
}

func TestSimulateBasic(t *testing.T) {
	run, err := Simulate(NewMinWait(1), DistinctInputs(4), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Blocked) != 0 {
		t.Fatalf("blocked: %v", run.Blocked)
	}
	if d := len(run.DistinctDecisions()); d > 2 {
		t.Fatalf("distinct = %d", d)
	}
}

func TestSimulateWithPartition(t *testing.T) {
	run, err := Simulate(NewMinWait(3), DistinctInputs(6), SimOptions{
		Partition: [][]ProcessID{{1, 2, 3}, {4, 5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := len(run.DistinctDecisions()); d != 2 {
		t.Fatalf("distinct = %d, want 2 (one per group)", d)
	}
}

func TestSimulateWithDetector(t *testing.T) {
	run, err := Simulate(NewSigmaOmega(), DistinctInputs(4), SimOptions{
		Detector: DetectorSpec{Kind: "sigma-omega", K: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := len(run.DistinctDecisions()); d != 1 {
		t.Fatalf("distinct = %d, want consensus", d)
	}
}

func TestSimulateRejectsBadDetector(t *testing.T) {
	if _, err := Simulate(NewMinWait(1), DistinctInputs(3), SimOptions{
		Detector: DetectorSpec{Kind: "nonsense"},
	}); err == nil {
		t.Fatal("unknown detector accepted")
	}
	if _, err := Simulate(NewMinWait(1), DistinctInputs(3), SimOptions{
		Detector: DetectorSpec{Kind: "partition"},
	}); err == nil {
		t.Fatal("partition detector without partition accepted")
	}
}

// findFailure runs Searcher.FindConsensusFailure with options o over the
// live subsystem, failing the test on invalid options or a search error.
func findFailure(t *testing.T, o Options, alg Algorithm, inputs []Value, live []ProcessID, crashBudget, maxConfigs int) (*explore.Witness, bool) {
	t.Helper()
	s, err := NewSearcher(o)
	if err != nil {
		t.Fatal(err)
	}
	w, found, err := s.FindConsensusFailure(context.Background(), SearchRequest{
		Alg:         alg,
		Inputs:      inputs,
		Live:        live,
		CrashBudget: crashBudget,
		MaxConfigs:  maxConfigs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, found
}

// bivalenceTable renders the E6 table with options o.
func bivalenceTable(t *testing.T, o Options) string {
	t.Helper()
	s, err := NewSearcher(o)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ExperimentBivalenceWith(s)
	if err != nil {
		t.Fatal(err)
	}
	return tab.String()
}

func TestFindConsensusFailureFacade(t *testing.T) {
	w, found := findFailure(t, Options{}, NewMinWait(1), DistinctInputs(3), []ProcessID{1, 2, 3}, 0, 0)
	if !found {
		t.Fatal("MinWait{F:1} disagreement not found in 3-process system")
	}
	if w.Kind != "disagreement" {
		t.Fatalf("kind = %s", w.Kind)
	}
}

func TestTheorem10ConstructionSmall(t *testing.T) {
	rep, merged, err := Theorem10Construction(5, 2, 80000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Refuted {
		t.Fatalf("not refuted: %s", rep.Summary())
	}
	if merged == nil || len(merged.Distinct) != 2 {
		t.Fatalf("merged run: %+v", merged)
	}
	if !pastedHistoryAdmissible(rep, 2) {
		t.Fatal("pasted history not admissible as (Sigma_2, Omega_2)")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "test",
		Columns: []string{"a", "bb"},
		Notes:   []string{"hello"},
	}
	tab.AddRow(1, "x")
	tab.AddRow("longer", 2)
	s := tab.String()
	for _, want := range []string{"== T: test ==", "a", "bb", "longer", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("suite has %d experiments, want 15", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestCheapExperimentsProduceConsistentTables smoke-runs the fast
// experiments and asserts their invariant columns.
func TestCheapExperimentsProduceConsistentTables(t *testing.T) {
	t.Run("E3", func(t *testing.T) {
		tab, err := ExperimentBorderImpossibility()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[5] != "true" { // indistinguishable
				t.Fatalf("E3 row not indistinguishable: %v", row)
			}
			if row[6] != "true" { // violates k-agreement
				t.Fatalf("E3 row does not violate: %v", row)
			}
		}
	})
	t.Run("E6", func(t *testing.T) {
		tab, err := ExperimentBivalence()
		if err != nil {
			t.Fatal(err)
		}
		bivalent := 0
		for _, row := range tab.Rows {
			if row[2] == "bivalent" {
				bivalent++
			}
		}
		if bivalent == 0 {
			t.Fatal("E6 found no bivalent initial configuration")
		}
	})
	t.Run("E7", func(t *testing.T) {
		tab, err := ExperimentPartitionHistoryValidity()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			for col := 3; col <= 7; col++ {
				if row[col] != "true" {
					t.Fatalf("E7 check failed: %v", row)
				}
			}
		}
	})
	t.Run("E8", func(t *testing.T) {
		tab, err := ExperimentTIndependence()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Fatal("E8 empty")
		}
	})
	t.Run("E10", func(t *testing.T) {
		tab, err := ExperimentRuntimeAblation()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				t.Fatalf("E10 ablation mismatch: %v", row)
			}
		}
	})
	t.Run("E12", func(t *testing.T) {
		tab, err := ExperimentSynchronyLadder()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				t.Fatalf("E12 outcome outside claim: %v", row)
			}
			// Partitioned rungs must show the split for every protocol —
			// process synchrony does not prevent it (Theorem 2).
			if row[2] == "async+part" || row[2] == "lockstep+part" {
				if row[3] == "1" {
					t.Fatalf("partitioned rung did not split: %v", row)
				}
			}
		}
	})
	t.Run("E11", func(t *testing.T) {
		tab, err := ExperimentRoundModel()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				t.Fatalf("E11 round-model row failed: %v", row)
			}
			// The kernel predicate must separate the assignments.
			switch row[3] {
			case "complete":
				if row[4] != "true" {
					t.Fatalf("complete assignment lost its kernel: %v", row)
				}
			case "partitioned":
				if row[4] != "false" {
					t.Fatalf("partitioned assignment should have empty kernel: %v", row)
				}
			}
		}
	})
}

// TestHeavyExperiments runs the engine-backed sweeps; skipped with -short.
func TestHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweeps skipped in -short mode")
	}
	t.Run("E1", func(t *testing.T) {
		tab, err := ExperimentTheorem2Border(E1Params{MinN: 4, MaxN: 5, MaxConfigs: 60000})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[3] == "impossible" && row[4] != "refuted" {
				t.Fatalf("E1 impossible row not refuted: %v", row)
			}
			if row[3] == "solvable" && row[4] != "decided" {
				t.Fatalf("E1 solvable row failed: %v", row)
			}
		}
	})
	t.Run("E2", func(t *testing.T) {
		tab, err := ExperimentInitialCrashPossibility(E2Params{MinN: 3, MaxN: 6, TrialsPerPoint: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				t.Fatalf("E2 row violates Theorem 8: %v", row)
			}
		}
	})
	t.Run("E5", func(t *testing.T) {
		tab, err := ExperimentFailureDetectorBorder(E5Params{MinN: 5, MaxN: 5, MaxConfigs: 80000})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			switch row[2] {
			case "impossible":
				if row[3] != "refuted" {
					t.Fatalf("E5 impossible row not refuted: %v", row)
				}
			case "solvable":
				if !strings.HasPrefix(row[3], "decided") {
					t.Fatalf("E5 solvable row failed: %v", row)
				}
			}
		}
	})
	t.Run("E9", func(t *testing.T) {
		tab, err := ExperimentCandidateVetting()
		if err != nil {
			t.Fatal(err)
		}
		wantVerdicts := map[string]string{
			"decideown":       "flawed",
			"firstheard":      "flawed",
			"minwait(f=3)":    "flawed",
			"minwait(f=1)":    "survives",
			"roundflood(f=2)": "flawed",
		}
		for _, row := range tab.Rows {
			if want, ok := wantVerdicts[row[0]]; ok && row[4] != want {
				t.Fatalf("E9 verdict for %s = %s, want %s", row[0], row[4], want)
			}
		}
	})
}
