package explore

// The kernel golden table freezes what the explorer's searches return —
// breadth- and depth-first witness searches, valence censuses and
// critical-step analyses — across instances, reductions, fault models, an
// oracle and truncation budgets, one line per row in testdata/kernel.golden.
// A line records the found flag, the Stats, the witness detail and event
// trace, an order-independent digest of the visited-key set, and the
// per-level OnProgress profile. The suites in goldenSuites run their rows
// on the search kernel and compare each result with the file: the file, not
// a second engine, is the oracle. Every row runs at the six pairwise
// configurations of store, worker count and configuration engine, each
// exactly once across the suites.
//
// Regenerate the file (CI's golden-drift step does, then diffs) with
//
//	go test ./internal/explore -run '^TestKernelGoldenFile$' -update

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernel.golden from the search engine")

const (
	goldenPath   = "testdata/kernel.golden"
	goldenHeader = "# Kernel golden table: go test ./internal/explore -run '^TestKernelGoldenFile$' -update\n"
)

// goldenRow is one frozen search.
type goldenRow struct {
	inst     diffInstance
	sym, por bool
	faults   FaultAdversary
	oracle   bool
	// search is "bfs" or "dfs" (a witness search for goal), "valence"
	// (Valence(stopAt)) or "critical" (AnalyzeCriticalSteps).
	search     string
	goal       string
	stopAt     int
	maxConfigs int
}

// key names the row's line in the golden file.
func (r goldenRow) key() string {
	red := "plain"
	switch {
	case r.sym && r.por:
		red = "sym+por"
	case r.sym:
		red = "sym"
	case r.por:
		red = "por"
	}
	parts := []string{r.inst.name, red}
	if r.faults.Model != sim.FaultCrash {
		parts = append(parts, r.faults.String())
	}
	if r.oracle {
		parts = append(parts, "oracle")
	}
	switch r.search {
	case "bfs", "dfs":
		parts = append(parts, r.search+"-"+r.goal)
	case "valence":
		parts = append(parts, fmt.Sprintf("valence-%d", r.stopAt))
	default:
		parts = append(parts, r.search)
	}
	if r.maxConfigs > 0 {
		parts = append(parts, fmt.Sprintf("max=%d", r.maxConfigs))
	}
	return strings.Join(parts, "/")
}

// goldenConfig is one engine configuration a row runs on.
type goldenConfig struct {
	store   Store
	workers int
	packed  bool
}

// pairwiseConfigs are the six configurations every golden row runs at:
// together they cover every pair of store, worker count and engine.
var pairwiseConfigs = []goldenConfig{
	{StoreInMemory, 1, false}, {StoreFrontierOnly, 1, true}, {StoreSpill, 4, true},
	{StoreInMemory, 4, true}, {StoreFrontierOnly, 4, false}, {StoreSpill, 1, false},
}

func (r goldenRow) explorer(c goldenConfig) *Explorer {
	opts := Options{
		Live:       r.inst.live,
		MaxCrashes: r.inst.crashes,
		MaxConfigs: r.maxConfigs,
		Workers:    c.workers,
		Symmetry:   r.sym,
		POR:        r.por,
		Faults:     r.faults,
		Store:      c.store,
	}
	if r.search == "dfs" {
		opts.Strategy = "dfs"
	}
	if r.oracle {
		opts.Oracle = stubOracle{}
	}
	return onEngine(New(sim.Restrict(r.inst.alg, r.inst.live), r.inst.inputs, opts), c.packed)
}

func goalByName(kind string) goalFunc {
	if kind == "blocking" {
		return blockingGoal
	}
	return disagreementGoal
}

// goldenResult runs the row on one configuration and renders its golden
// line (without the key). It also returns the witness of a witness search
// that found one, for revalidation.
func goldenResult(r goldenRow, c goldenConfig) (string, *Witness, error) {
	e := r.explorer(c)
	var sets []*visitedSet
	e.onVisited = func(v *visitedSet) { sets = append(sets, v) }
	var profile []string
	e.opts.OnProgress = func(visited, level int) {
		profile = append(profile, fmt.Sprintf("%d@%d", visited, level))
	}
	var b strings.Builder
	var witness *Witness
	switch r.search {
	case "bfs", "dfs":
		w, found, err := e.search(goalByName(r.goal), r.goal)
		if err != nil {
			return "", nil, err
		}
		// A frontier-only witness is re-searched; both passes seal the
		// same set, so only the last one counts.
		sets = sets[len(sets)-1:]
		fmt.Fprintf(&b, "found=%t stats=%+v", found, w.Stats)
		if found {
			fmt.Fprintf(&b, " detail=%q trace=%s", w.Detail, runTrace(w.Run))
			witness = w
		}
	case "valence":
		vals, stats, err := e.Valence(r.stopAt)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "values=%v stats=%+v", vals, stats)
	case "critical":
		an, err := e.AnalyzeCriticalSteps()
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "values=%v bivalent=%t stats=%+v steps=", an.InitialValues, an.Bivalent, an.Stats)
		for i, s := range an.Steps {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d%s%v", s.Proc, s.Mode, s.Values)
			if s.Crash {
				b.WriteString("crash")
			}
			if s.Forcing {
				b.WriteString("!")
			}
		}
	default:
		return "", nil, fmt.Errorf("unknown golden search %q", r.search)
	}
	fmt.Fprintf(&b, " keys=%s profile=%s", keysDigest(sets), strings.Join(profile, ","))
	return b.String(), witness, nil
}

// runTrace renders a witness run's events — process, crash/silent flags,
// delivered and sent counts, fault — and a hash of its final configuration.
func runTrace(r *sim.Run) string {
	var b strings.Builder
	for i, ev := range r.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", ev.Proc)
		switch {
		case ev.Silent:
			b.WriteByte('s')
		case ev.Crashed:
			b.WriteByte('c')
		}
		fmt.Fprintf(&b, "d%dm%d", len(ev.Delivered), len(ev.Sent))
		if ev.Fault != sim.FaultCrash {
			fmt.Fprintf(&b, "f%d", int(ev.Fault))
		}
	}
	fmt.Fprintf(&b, ";%016x", sim.HashString(sim.HashSeed(), r.Final.Key()))
	return b.String()
}

// keysDigest is an order-independent digest of the visited-key sets of a
// row's searches, in search order: the total key count and a hash over each
// set's size, key sum and key xor.
func keysDigest(sets []*visitedSet) string {
	h, n := sim.HashSeed(), 0
	for _, v := range sets {
		var sum, xor uint64
		v.Range(func(k uint64) bool {
			sum += sim.HashMix(k)
			xor ^= k
			return true
		})
		h = sim.HashUint(sim.HashUint(sim.HashUint(h, uint64(v.Len())), sum), xor)
		n += v.Len()
	}
	return fmt.Sprintf("%d:%016x", n, h)
}

var goldenOnce struct {
	sync.Once
	lines map[string]string
	err   error
}

// goldenLines loads the golden file, keyed by row.
func goldenLines() (map[string]string, error) {
	goldenOnce.Do(func() {
		raw, err := os.ReadFile(goldenPath)
		lines := map[string]string{}
		for _, line := range strings.Split(string(raw), "\n") {
			if key, rest, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				lines[key] = rest
			}
		}
		goldenOnce.lines, goldenOnce.err = lines, err
	})
	return goldenOnce.lines, goldenOnce.err
}

// goldenCase is one subtest of a golden suite: a row and the
// configurations it runs on (see shareConfigs).
type goldenCase struct {
	test, name string
	row        goldenRow
	// store confines the case to that store's configurations; anyStore
	// takes every store.
	store   Store
	configs []goldenConfig
}

// anyStore marks a golden case that takes configurations on every store.
const anyStore Store = -1

// checkGolden runs the case's row on each of its configurations and
// compares the result with the row's golden line; found witnesses must
// also revalidate as genuine violations.
func checkGolden(t *testing.T, c goldenCase) {
	t.Helper()
	lines, err := goldenLines()
	if err != nil {
		t.Fatal(err)
	}
	key := c.row.key()
	want, ok := lines[key]
	if !ok {
		t.Fatalf("row %s missing from %s (regenerate with -update)", key, goldenPath)
	}
	if len(c.configs) == 0 {
		t.Fatalf("%s runs no configuration", key)
	}
	for _, cfg := range c.configs {
		got, w, err := goldenResult(c.row, cfg)
		if err != nil {
			t.Fatalf("%s %+v: %v", key, cfg, err)
		}
		if got != want {
			t.Fatalf("%s %+v diverged from the golden line:\n got %s\nwant %s", key, cfg, got, want)
		}
		if w != nil {
			testutil.RevalidateWitness(t, w.Kind, w.Run)
		}
	}
}

// witnessGoals are the two witness searches' goal kinds.
var witnessGoals = []string{"disagreement", "blocking"}

// packedRow is the breadth-first row of a packed differential cell.
func (c packedDiffCell) row(goal string) goldenRow {
	return goldenRow{inst: c.inst, sym: c.symmetry, por: c.por, faults: c.faults, search: "bfs", goal: goal}
}

// goldenSuites maps each test that checks kernel searches against the
// golden file to its cases. The test names are those of the suites that
// used to compare the explorer's engines with each other; each now checks
// its rows against the file. Suites overlap in rows, so shareConfigs splits
// each row's configurations among the cases that check it.
func goldenSuites() map[string][]goldenCase {
	var cases []*goldenCase
	add := func(test, name string, r goldenRow) {
		cases = append(cases, &goldenCase{test: test, name: name, row: r, store: anyStore})
	}
	addRow := func(test string, r goldenRow) { add(test, r.key(), r) }

	// The packed matrix has one subtest per row and store.
	for _, c := range packedDiffCells() {
		for _, g := range witnessGoals {
			for _, store := range []Store{StoreInMemory, StoreFrontierOnly, StoreSpill} {
				cases = append(cases, &goldenCase{test: "TestPackedSearchMatrix",
					name: c.name() + "/" + g + "/" + store.String(), row: c.row(g), store: store})
			}
		}
	}
	for _, c := range packedDiffCells() {
		add("TestPackedArenaVisitedSet", c.name(), c.row("disagreement"))
	}
	for _, s := range []struct {
		test, prefix string
		sym, por     bool
		insts        []diffInstance
	}{
		{"TestParallelSearchVisitsSequentialSet", "", false, false, diffInstances()},
		{"TestBoundedStoreVerdictParity", "", false, false, porInstances()},
		{"TestBoundedStoreVerdictParity", "sym+por/", true, true, porInstances()},
		{"TestSymmetryParallelMatchesSerial", "", true, false, symInstances()},
		{"TestPORParallelMatchesSerial", "por/", false, true, porInstances()},
		{"TestPORParallelMatchesSerial", "por+sym/", true, true, porInstances()},
	} {
		for _, d := range s.insts {
			for _, g := range witnessGoals {
				add(s.test, s.prefix+d.name+"/"+g, goldenRow{inst: d, sym: s.sym, por: s.por, search: "bfs", goal: g})
			}
		}
	}

	// Depth-first disagreement searches on the POR suite (blocking on the
	// differential instances) and valence censuses, exhaustive and
	// early-stopping, plain and reduced.
	for _, reduced := range []bool{false, true} {
		for _, d := range porInstances() {
			addRow("TestBoundedDFSParity", goldenRow{inst: d, sym: reduced, por: reduced, search: "dfs", goal: "disagreement"})
		}
		valence := "TestParallelValenceMatchesSequential"
		if reduced {
			valence = "TestBoundedValenceParity"
		}
		for _, d := range diffInstances() {
			addRow("TestBoundedDFSParity", goldenRow{inst: d, sym: reduced, por: reduced, search: "dfs", goal: "blocking"})
			for _, stopAt := range []int{0, 2} {
				addRow(valence, goldenRow{inst: d, sym: reduced, por: reduced, search: "valence", stopAt: stopAt})
			}
		}
	}
	mixed := packedDiffCells()[len(packedDiffCells())-1].inst // minwait-n3-mixed
	for _, model := range []sim.FaultModel{sim.FaultSendOmission, sim.FaultReceiveOmission, sim.FaultByzantine} {
		fa := FaultAdversary{Model: model, Budget: 1, MaxFaulty: 1}
		addRow("TestBoundedValenceParity", goldenRow{inst: mixed, faults: fa, search: "valence"})
	}

	// Truncation at budgets that cut BFS levels mid-way, for both witness
	// goals, reduced searches, depth-first searches and valence.
	crash := diffInstances()[1]  // minwait-n3-crash: witnesses exist
	uniform := symInstances()[5] // minwait-n3-uniform: nothing to find
	for _, budget := range []int{1, 2, 3, 7, 25, 100, 999, 5000} {
		addRow("TestParallelTruncationParity", goldenRow{inst: crash, search: "bfs", goal: "disagreement", maxConfigs: budget})
	}
	for _, budget := range []int{3, 25, 100, 999} {
		for _, r := range []goldenRow{
			{inst: crash, search: "bfs", goal: "blocking"},
			{inst: uniform, search: "bfs", goal: "disagreement"},
			{inst: uniform, sym: true, por: true, search: "bfs", goal: "disagreement"},
			{inst: uniform, search: "dfs", goal: "disagreement"},
			{inst: crash, search: "valence"},
			{inst: crash, search: "valence", stopAt: 2},
		} {
			r.maxConfigs = budget
			addRow("TestBoundedTruncationParity", r)
		}
	}

	// Critical steps (every first action's successor valence), and an
	// oracle, which stands POR down and is queried on every step.
	bivalent := diffInstance{"minwait-n3-bivalent", algorithms.MinWait{F: 1}, []sim.Value{0, 1, 1}, []sim.ProcessID{1, 2, 3}, 0}
	for _, reduced := range []bool{false, true} {
		for _, d := range []diffInstance{bivalent, crash, porInstances()[13], symInstances()[11]} {
			addRow("TestParallelCriticalStepsMatchSequential", goldenRow{inst: d, sym: reduced, por: reduced, search: "critical"})
		}
		d := diffInstances()[0]
		for _, r := range []goldenRow{
			{search: "bfs", goal: "disagreement"},
			{search: "bfs", goal: "blocking"},
			{search: "dfs", goal: "disagreement"},
			{search: "valence"},
		} {
			r.inst, r.sym, r.por, r.oracle = d, reduced, reduced, true
			addRow("TestParallelSearchWithOracle", r)
		}
	}

	shareConfigs(cases)
	suites := map[string][]goldenCase{}
	for _, c := range cases {
		suites[c.test] = append(suites[c.test], *c)
	}
	return suites
}

// shareConfigs hands each row's six pairwise configurations out among the
// cases that check the row, so that across the suites every row runs at
// every configuration exactly once: a configuration goes to the least
// loaded case that takes its store, the earliest on a tie.
func shareConfigs(cases []*goldenCase) {
	byKey := map[string][]*goldenCase{}
	for _, c := range cases {
		byKey[c.row.key()] = append(byKey[c.row.key()], c)
	}
	for _, same := range byKey {
		for _, cfg := range pairwiseConfigs {
			var pick *goldenCase
			for _, c := range same {
				if (c.store == anyStore || c.store == cfg.store) && (pick == nil || len(c.configs) < len(pick.configs)) {
					pick = c
				}
			}
			pick.configs = append(pick.configs, cfg)
		}
	}
}

// goldenRows is the union of the suites' rows, one per key, sorted.
func goldenRows() []goldenRow {
	byKey := map[string]goldenRow{}
	for _, cases := range goldenSuites() {
		for _, c := range cases {
			byKey[c.row.key()] = c.row
		}
	}
	rows := make([]goldenRow, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key() < rows[j].key() })
	return rows
}

// TestKernelGoldenFile keeps the golden file in step with the suites: every
// row a suite checks has exactly one line and no line is orphaned. With
// -update it rewrites the file from the serial in-memory kernel on the
// pointer engine.
func TestKernelGoldenFile(t *testing.T) {
	rows := goldenRows()
	if *updateGolden {
		var b strings.Builder
		b.WriteString(goldenHeader)
		for _, r := range rows {
			line, _, err := goldenResult(r, goldenConfig{StoreInMemory, 1, false})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s\n", r.key(), line)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	lines, err := goldenLines()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, r := range rows {
		want[r.key()] = true
		if _, ok := lines[r.key()]; !ok {
			t.Errorf("row %s missing from %s (regenerate with -update)", r.key(), goldenPath)
		}
	}
	for key := range lines {
		if !want[key] {
			t.Errorf("orphaned line %s in %s (regenerate with -update)", key, goldenPath)
		}
	}
}

// runGoldenSuite runs the golden suite named after the calling test. The
// cases are independent searches, so they run in parallel.
func runGoldenSuite(t *testing.T) {
	cases := goldenSuites()[t.Name()]
	if len(cases) == 0 {
		t.Fatalf("no golden suite for %s", t.Name())
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c)
		})
	}
}

// searchWithKeys runs a witness search and also returns the visited-key set
// it sealed (the re-search's, when a frontier-only witness is re-searched:
// both passes seal the same set).
func searchWithKeys(e *Explorer, goal goalFunc, kind string) (*Witness, bool, *visitedSet, error) {
	var vis *visitedSet
	e.onVisited = func(v *visitedSet) { vis = v }
	w, found, err := e.search(goal, kind)
	return w, found, vis, err
}

// The tests below each check their golden suite (see goldenSuites).

// TestPackedSearchMatrix: differential cells on both engines, every store.
func TestPackedSearchMatrix(t *testing.T) { runGoldenSuite(t) }

// TestPackedArenaVisitedSet: every differential cell's disagreement search.
func TestPackedArenaVisitedSet(t *testing.T) { runGoldenSuite(t) }

// TestParallelSearchVisitsSequentialSet: plain differential instances.
func TestParallelSearchVisitsSequentialSet(t *testing.T) { runGoldenSuite(t) }

// TestBoundedStoreVerdictParity: the POR suite, plain and sym+por.
func TestBoundedStoreVerdictParity(t *testing.T) { runGoldenSuite(t) }

// TestSymmetryParallelMatchesSerial: the symmetry suite under symmetry.
func TestSymmetryParallelMatchesSerial(t *testing.T) { runGoldenSuite(t) }

// TestPORParallelMatchesSerial: the POR suite under por and por+sym.
func TestPORParallelMatchesSerial(t *testing.T) { runGoldenSuite(t) }

// TestBoundedDFSParity: depth-first searches, plain and reduced.
func TestBoundedDFSParity(t *testing.T) { runGoldenSuite(t) }

// TestParallelTruncationParity: disagreement searches cut mid-level.
func TestParallelTruncationParity(t *testing.T) { runGoldenSuite(t) }

// TestBoundedTruncationParity: truncated blocking, reduced, DFS and valence.
func TestBoundedTruncationParity(t *testing.T) { runGoldenSuite(t) }

// TestParallelValenceMatchesSequential: plain valence censuses.
func TestParallelValenceMatchesSequential(t *testing.T) { runGoldenSuite(t) }

// TestBoundedValenceParity: valence under the reductions and fault models.
func TestBoundedValenceParity(t *testing.T) { runGoldenSuite(t) }

// TestParallelCriticalStepsMatchSequential: critical-step analyses.
func TestParallelCriticalStepsMatchSequential(t *testing.T) { runGoldenSuite(t) }

// TestParallelSearchWithOracle: searches queried through an oracle.
func TestParallelSearchWithOracle(t *testing.T) { runGoldenSuite(t) }
