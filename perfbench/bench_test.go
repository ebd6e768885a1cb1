package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"kset/internal/service"
)

func TestPercentileAndSampleCount(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{4}, 0.9); got != 4 {
		t.Errorf("percentile of one sample = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 0}, {10, 1}, {100, 10}, {101, 10}, {12, 2}} {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps 2: the union counts once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // runs past its parent: only 90-100 counts
		{ID: 5, Parent: 3, Start: 25, End: 35},   // a grandchild is not a child of 1
		{ID: 6, Parent: 1, Start: 200, End: 210}, // outside the parent entirely
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id, 1)
	if id != 0 || tr.add("y", 0, 0, time.Now(), time.Now(), 1) != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer("t")
	root := tr.begin("op", 0, 7)
	child := tr.begin("child", root, 7)
	tr.end(child, 3)
	tr.end(root, 0)
	if s := tr.named("child"); len(s) != 1 || s[0].Parent != root || s[0].N != 3 || s[0].Op != 7 || s[0].End < s[0].Start {
		t.Errorf("child span = %+v", s)
	}
}

func TestRoundsArePermutations(t *testing.T) {
	a, b := newRounds(newRand(5), 7), newRounds(newRand(5), 7)
	other := newRounds(newRand(6), 7)
	same := true
	for r := 0; r < 3; r++ {
		seen := map[int]bool{}
		for i := 0; i < 7; i++ {
			x := a.next()
			if y := b.next(); x != y {
				t.Fatalf("same seed diverged at round %d: %d vs %d", r, x, y)
			}
			if other.next() != x {
				same = false
			}
			seen[x] = true
			if a.round != r {
				t.Fatalf("round = %d, want %d", a.round, r)
			}
		}
		if len(seen) != 7 {
			t.Fatalf("round %d is not a permutation: %v", r, seen)
		}
	}
	if same {
		t.Error("seeds 5 and 6 drew the same order")
	}
	if picks := spread(100, 8); !reflect.DeepEqual(picks, []int{6, 18, 30, 42, 54, 66, 78, 90}) {
		t.Fatalf("spread picks %v", picks)
	}
}

func TestInputSets(t *testing.T) {
	if n := len(vetCells()); n != 159 {
		t.Errorf("vet draws from %d cells, want 159", n)
	}
	specs, err := serveSpecs(service.KsetRunner{})
	if err != nil {
		t.Fatal(err)
	}
	imp, search := 0, 0
	for _, sp := range specs {
		if sp.Goal == service.GoalSearch {
			search++
		} else {
			imp++
		}
	}
	// Every spec has its own digest, so every session's cold job is new.
	if imp < 618 || search == 0 {
		t.Errorf("serve has %d impossibility and %d search specs", imp, search)
	}
}

// sessionSpecs returns the first n session specs of a serve workload, as
// submitted, without starting a server.
func sessionSpecs(seed uint64, n int) ([]service.InstanceSpec, []int) {
	specs, _ := serveSpecs(service.KsetRunner{})
	rng := newRand(seed)
	recovered := spread(len(specs), setupJobs)
	rng.Shuffle(len(recovered), func(i, j int) { recovered[i], recovered[j] = recovered[j], recovered[i] })
	order := newRounds(rng, len(specs))
	out := make([]service.InstanceSpec, n)
	for i := range out {
		out[i] = specs[order.next()]
		out[i].MaxConfigs = sessionMaxConfigs + order.round
	}
	return out, recovered
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	s1, r1 := sessionSpecs(11, 1000)
	s2, r2 := sessionSpecs(11, 1000)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("serve inputs differ for the same seed")
	}
	if s3, _ := sessionSpecs(12, 1000); reflect.DeepEqual(s1, s3) {
		t.Error("seeds 11 and 12 gave the same sessions")
	}
	// Within a run every session's digest is new.
	seen := map[string]bool{}
	for _, sp := range s1 {
		d, err := service.KsetRunner{}.Digest(sp)
		if err != nil {
			t.Fatal(err)
		}
		if seen[d] {
			t.Fatalf("session spec %+v repeats a digest", sp)
		}
		seen[d] = true
	}
}

// TestExactCountsRepeat runs the same vet ops twice from one seed and
// compares every exact count the ops report.
func TestExactCountsRepeat(t *testing.T) {
	counts := func() []int {
		v, err := newVet(3)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for i := 0; i < 40; i++ {
			k := v.order.next()
			o, rep, err := v.check(k, nil, 0, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, k, o.states, len(rep.Pasted.Events), len(rep.DistinctDecided))
		}
		return out
	}
	if a, b := counts(), counts(); !reflect.DeepEqual(a, b) {
		t.Errorf("vet counts differ for the same seed:\n%v\n%v", a, b)
	}
}

func TestExhaustOpMatchesPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one exhaustive search")
	}
	e, err := newExhaust(4)
	if err != nil {
		t.Fatal(err)
	}
	in := instance{5, 3}
	tr := newTracer("test")
	root := tr.begin("op", 0, 0)
	out, err := e.run(in, tr, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := exhaustPins[in]
	if out.states != 2*want.states {
		t.Errorf("op visited %d states, want %d", out.states, 2*want.states)
	}
	if n := len(tr.named("explore.level")); n != 2*want.levels {
		t.Errorf("%d level spans, want %d", n, 2*want.levels)
	}
}

// TestExhaustQuantilesInsideClusters checks the shape of the exhaust round:
// over any run of two or more whole rounds, op_p50_ms must fall well inside
// the light ops and op_p90_ms well inside the heavy ones, not on the step
// between them.
func TestExhaustQuantilesInsideClusters(t *testing.T) {
	light, heavy := 0, 0
	for _, in := range exhaustRound {
		if _, ok := exhaustPins[in]; !ok {
			t.Fatalf("round instance %v has no pin", in)
		}
		if in.n == 6 {
			heavy++
		} else {
			light++
		}
	}
	for r := 2; r <= 30; r++ {
		l, h := float64(r*light), float64(r*heavy)
		n := l + h
		if rank := (n - 1) * 0.5; rank < 0.2*l || rank > 0.8*l {
			t.Errorf("%d rounds: p50 rank %.1f is not inside the %v light ops", r, rank, l)
		}
		if rank := (n - 1) * 0.9; rank < l+0.2*h || rank > l+0.8*h {
			t.Errorf("%d rounds: p90 rank %.1f is not inside the %v heavy ops above %v light ones", r, rank, h, l)
		}
	}
}

// TestDefinitionMatchesOutput checks BENCHMARK.json against what the
// benchmark prints: a short untraced run must print exactly the end-to-end
// metrics, and the per-layer table must match the per-layer list.
func TestDefinitionMatchesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a short exhaust measurement (seconds)")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, m := range def.PerLayer {
		if i >= len(layerMetrics) || layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Fatalf("per_layer[%d] = %v, table has %+v", i, m, layerMetrics[min(i, len(layerMetrics)-1)])
		}
	}
	if len(def.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer lists %d metrics, the table %d", len(def.PerLayer), len(layerMetrics))
	}
	res, err := runMeasured("exhaust", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("exhaust run: %+v", res)
	}
	for _, m := range def.EndToEnd {
		want = append(want, m.Name)
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("metric %s: got %+v, want unit %s and a positive value", m.Name, got, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("run printed %d metrics, definition has %d", len(res.Metrics), len(want))
	}
}
