package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"kset"
	"kset/internal/explore"
	"kset/internal/sim"
)

// The exhaust workload proves that no disagreement and no blocking run exists
// for uniform-input MinWait with all n processes live and a crash budget of
// two, in the E13 regime (symmetry, partial-order reduction, frontier store).
// Each op searches the whole reduced state space twice (disagreement, then
// blocking), so explore and sim do nearly all the work.
const (
	exhaustBudget     = 2
	exhaustMaxConfigs = 1_000_000 // far above the space: the search must exhaust it
	exhaustWarmup     = 1500      // configurations a set-up warm-up search visits
)

// instance is one exhaust instance: MinWait on n processes with resilience f.
type instance struct{ n, f int }

func (in instance) String() string { return fmt.Sprintf("n=%d f=%d", in.n, in.f) }

// pin is an instance's exact reduced state-space size and BFS depth; both
// searches of an op have them, and any other count is a wrong verdict that
// fails the op.
type pin struct{ states, levels int }

var exhaustPins = map[instance]pin{
	{5, 2}: {3891, 12},
	{5, 3}: {3908, 12},
	{6, 2}: {22052, 15},
	{6, 3}: {22068, 15},
}

// exhaustRound is one round of ops, which the seed shuffles: eight light ops
// at n=5 (about 0.3 s each at one P) and two heavy ones at n=6 (about 2 s).
// A run's op latencies then form two clusters, the light ones below the 80th
// percentile and the heavy ones above it, so op_p50_ms lies inside the light
// cluster and op_p90_ms inside the heavy one, each resting on many ops
// rather than on the two or three slowest of a run of equal ops.
var exhaustRound = []instance{{5, 2}, {5, 2}, {5, 2}, {5, 2}, {5, 3}, {5, 3}, {5, 3}, {5, 3}, {6, 2}, {6, 3}}

// probeInstance is the instance the traced probe times: the heavy one.
var probeInstance = instance{6, 2}

var exhaustOptions = kset.Options{Workers: 1, Symmetry: true, POR: true, Store: "frontier"}

type exhaust struct {
	search *kset.Searcher
	value  kset.Value
	order  *rounds
	seen   map[instance]bool
}

func setupExhaust(seed uint64) (workload, error) { return newExhaust(seed) }

func newExhaust(seed uint64) (*exhaust, error) {
	rng := newRand(seed)
	s, err := kset.NewSearcher(exhaustOptions)
	if err != nil {
		return nil, err
	}
	e := &exhaust{search: s, value: kset.Value(rng.IntN(10)), order: newRounds(rng, len(exhaustRound)), seen: map[instance]bool{}}
	// Warm up every instance with a truncated search.
	for _, in := range []instance{{5, 2}, {5, 3}, {6, 2}, {6, 3}} {
		w, found, err := s.FindConsensusFailure(context.Background(), e.request(in, exhaustWarmup, nil))
		if err != nil {
			return nil, err
		}
		if found || !w.Stats.Truncated {
			return nil, fmt.Errorf("exhaust warm-up %v: found=%v truncated=%v", in, found, w.Stats.Truncated)
		}
	}
	return e, nil
}

func (e *exhaust) request(in instance, maxConfigs int, onProgress func(visited, level int)) kset.SearchRequest {
	inputs := make([]kset.Value, in.n)
	live := make([]kset.ProcessID, in.n)
	for i := range inputs {
		inputs[i] = e.value
		live[i] = kset.ProcessID(i + 1)
	}
	return kset.SearchRequest{
		Alg:         kset.NewMinWait(in.f),
		Inputs:      inputs,
		Live:        live,
		CrashBudget: exhaustBudget,
		MaxConfigs:  maxConfigs,
		OnProgress:  onProgress,
	}
}

func (e *exhaust) op(i int, tr *tracer, root int) (opOut, error) {
	in := exhaustRound[e.order.next()]
	out, err := e.run(in, tr, root, i)
	out.repeat = e.seen[in]
	e.seen[in] = true
	return out, err
}

func (e *exhaust) roundLen() int { return len(exhaustRound) }

func (e *exhaust) close() error { return nil }

// run performs one exhaustive search, checks it against the pinned counts
// and, when traced, records a span per search and per sealed BFS level.
func (e *exhaust) run(in instance, tr *tracer, root, op int) (opOut, error) {
	type mark struct {
		at             time.Time
		visited, level int
	}
	want := exhaustPins[in]
	marks := make([]mark, 0, 2*want.levels)
	start := time.Now()
	w, found, err := e.search.FindConsensusFailure(context.Background(), e.request(in, exhaustMaxConfigs, func(visited, level int) {
		marks = append(marks, mark{time.Now(), visited, level})
	}))
	if err != nil {
		return opOut{}, fmt.Errorf("exhaust %v: %w", in, err)
	}
	if err := checkExhaust(in, w, found); err != nil {
		return opOut{}, err
	}
	// The progress marks restart at level 1 when the blocking search starts.
	var searches [][]mark
	for i, m := range marks {
		if i == 0 || m.level <= marks[i-1].level {
			searches = append(searches, nil)
		}
		searches[len(searches)-1] = append(searches[len(searches)-1], m)
	}
	if len(searches) != 2 {
		return opOut{}, fmt.Errorf("exhaust %v: progress shows %d searches, want 2", in, len(searches))
	}
	states := 0
	prev := start
	for _, s := range searches {
		last := s[len(s)-1]
		if len(s) != want.levels || last.level != want.levels || last.visited != want.states {
			return opOut{}, fmt.Errorf("exhaust %v: search sealed %d levels with %d states, want %d and %d",
				in, len(s), last.visited, want.levels, want.states)
		}
		states += last.visited
		if tr != nil {
			sid := tr.add("explore.search", root, op, prev, last.at, last.visited)
			before := 0
			for _, m := range s {
				tr.add("explore.level", sid, op, prev, m.at, m.visited-before)
				prev, before = m.at, m.visited
			}
		}
		prev = last.at
	}
	return opOut{states: states}, nil
}

func checkExhaust(in instance, w *explore.Witness, found bool) error {
	if w == nil || found {
		return fmt.Errorf("exhaust %v: found a consensus failure under uniform inputs", in)
	}
	if want := exhaustPins[in].states; w.Stats.Truncated || w.Stats.Visited != want {
		return fmt.Errorf("exhaust %v: visited %d (truncated %v), want exactly %d", in, w.Stats.Visited, w.Stats.Truncated, want)
	}
	return nil
}

// probeExhaust times the heavy exhaust instance (n = 6, f = 2) serially, at
// two search workers and over two in-process shards, and times configuration
// clones and steps along a seeded walk of the same instance.
func probeExhaust(seed uint64, tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	e, err := newExhaust(seed)
	if err != nil {
		return 0, 0, err
	}
	in := probeInstance
	runtime.GC()
	root := tr.begin("op", 0, 0)
	out, err := e.run(in, tr, root, 0)
	tr.end(root, out.states)
	if err != nil {
		return 1, 1, err
	}
	serial := tr.spans[root-1].dur()
	m["explore.serial_ms"] = ms(serial)
	m["explore.states"] = float64(exhaustPins[in].states)
	levelsMax, peak, levels := 0.0, 0, 0
	for _, s := range tr.named("explore.level") {
		levelsMax = max(levelsMax, ms(s.dur()))
		peak = max(peak, s.N)
	}
	for _, s := range tr.named("explore.search") {
		levels = max(levels, len(childrenOf(tr, s.ID)))
	}
	m["explore.levels"] = float64(levels)
	m["explore.level_ms_max"] = levelsMax
	m["explore.peak_level_states"] = float64(peak)

	attempted, failed = 1, 0
	variants := []struct {
		name string
		find func() (*explore.Witness, bool, error)
	}{
		{"explore.workers2", func() (*explore.Witness, bool, error) {
			o := exhaustOptions
			o.Workers = 2
			s, err := kset.NewSearcher(o)
			if err != nil {
				return nil, false, err
			}
			return s.FindConsensusFailure(context.Background(), e.request(in, exhaustMaxConfigs, nil))
		}},
		{"explore.shard2", func() (*explore.Witness, bool, error) {
			return e.search.FindConsensusFailureSharded(context.Background(), e.request(in, exhaustMaxConfigs, nil), 2)
		}},
	}
	for i, v := range variants {
		runtime.GC()
		id := tr.begin(v.name, 0, i+1)
		w, found, err := v.find()
		tr.end(id, 0)
		attempted++
		if err == nil {
			err = checkExhaust(in, w, found)
		}
		if err != nil {
			failed++
			fmt.Printf("  failed probe %s: %v\n", v.name, err)
			continue
		}
		m[v.name+"_ratio"] = float64(tr.spans[id-1].dur()) / float64(serial)
	}
	if err := walk(seed, e, tr); err != nil {
		return attempted + 1, failed + 1, err
	}
	for _, name := range []string{"sim.clone", "sim.apply"} {
		var per []float64
		for _, s := range tr.named(name) {
			per = append(per, float64(s.dur())/float64(time.Microsecond)/float64(s.N))
		}
		m[name+"_us"] = median(per)
	}
	return attempted + 1, failed, nil
}

func childrenOf(tr *tracer, id int) []span {
	var out []span
	for _, s := range tr.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Walk shape: walkBatches batches of walkBatch clones (then steps) each, from
// a configuration reached by a seeded walk that restarts as deep as the
// probed instance's BFS goes.
const (
	walkBatches = 400
	walkBatch   = 64
)

// walk times Configuration.CloneInto and ApplyQuiet in batches along a seeded
// walk of the probed instance (symmetry attached as in the search).
func walk(seed uint64, e *exhaust, tr *tracer) error {
	rng := newRand(seed ^ 0x77616c6b)
	req := e.request(probeInstance, 0, nil)
	alg := sim.Restrict(req.Alg, req.Live)
	initial := func() *sim.Configuration {
		c := sim.NewConfiguration(alg, req.Inputs)
		c.AttachSymmetry(sim.NewSymmetry(req.Inputs, req.Live))
		return c
	}
	cur := initial()
	pool := make([]*sim.Configuration, walkBatch)
	var steps []sim.StepRequest
	depth := 0
	for b := 0; b < walkBatches; b++ {
		steps = steps[:0]
		for _, p := range req.Live {
			if cur.Crashed(p) {
				continue
			}
			steps = append(steps, sim.StepRequest{Proc: p})
			if id, ok := cur.OldestMessageID(p); ok {
				steps = append(steps, sim.StepRequest{Proc: p, Deliver: []int64{id}})
				steps = append(steps, sim.StepRequest{Proc: p, Deliver: cur.DeliverAll(p)})
			}
		}
		t0 := time.Now()
		for i := range pool {
			pool[i] = cur.CloneInto(pool[i])
		}
		t1 := time.Now()
		for i, c := range pool {
			if err := c.ApplyQuiet(steps[i%len(steps)]); err != nil {
				return fmt.Errorf("walk step: %w", err)
			}
		}
		t2 := time.Now()
		tr.add("sim.clone", 0, b, t0, t1, walkBatch)
		tr.add("sim.apply", 0, b, t1, t2, walkBatch)
		if depth++; depth == exhaustPins[probeInstance].levels {
			cur, depth = initial(), 0
			continue
		}
		j := rng.IntN(walkBatch)
		cur, pool[j] = pool[j], cur
	}
	return nil
}
