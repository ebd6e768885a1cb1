package explore

import (
	"runtime"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

func BenchmarkFindDisagreementBFS(b *testing.B) {
	inputs := []sim.Value{0, 1, 2}
	for i := 0; i < b.N; i++ {
		e := New(algorithms.MinWait{F: 1}, inputs, Options{Live: []sim.ProcessID{1, 2, 3}})
		_, found, err := e.FindDisagreement()
		if err != nil || !found {
			b.Fatalf("found=%t err=%v", found, err)
		}
	}
}

func BenchmarkFindDisagreementDFS(b *testing.B) {
	inputs := []sim.Value{0, 1, 2}
	for i := 0; i < b.N; i++ {
		e := New(algorithms.MinWait{F: 1}, inputs, Options{Live: []sim.ProcessID{1, 2, 3}, Strategy: "dfs"})
		_, found, err := e.FindDisagreement()
		if err != nil || !found {
			b.Fatalf("found=%t err=%v", found, err)
		}
	}
}

func BenchmarkFindDisagreementDFSWide(b *testing.B) {
	// Five live processes: the regime where DFS beats BFS decisively.
	inputs := []sim.Value{0, 1, 2, 3, 4}
	live := []sim.ProcessID{1, 2, 3, 4, 5}
	for i := 0; i < b.N; i++ {
		e := New(algorithms.MinWait{F: 2}, inputs, Options{Live: live, Strategy: "dfs"})
		_, found, err := e.FindDisagreement()
		if err != nil || !found {
			b.Fatalf("found=%t err=%v", found, err)
		}
	}
}

func BenchmarkFindBlockingLateCrash(b *testing.B) {
	inputs := []sim.Value{0, 1, 2}
	for i := 0; i < b.N; i++ {
		e := New(algorithms.FLPKSet{F: 1}, inputs, Options{
			Live:       []sim.ProcessID{1, 2, 3},
			MaxCrashes: 1,
			Strategy:   "dfs",
		})
		_, found, err := e.FindBlocking()
		if err != nil || !found {
			b.Fatalf("found=%t err=%v", found, err)
		}
	}
}

// BenchmarkParallelSearch times the same exhaustive breadth-first search
// (MinWait{F:1} on four processes with uniform proposals — no witness
// exists, so every one of its ~7800 configurations is visited) at worker
// counts 1, 2, and GOMAXPROCS, making the scaling curve of the kernel's
// chunked parallel fan-out visible in the benchmark output and the
// committed baseline. workers=1 is the kernel's serial loop, so the 1-vs-2
// delta also shows the fan-out's bookkeeping overhead.
func BenchmarkParallelSearch(b *testing.B) {
	inputs := []sim.Value{0, 0, 0, 0}
	live := []sim.ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			e := New(algorithms.MinWait{F: 1}, inputs, Options{Live: live, Workers: workers})
			w, found, err := e.FindDisagreement()
			if err != nil || found || w.Stats.Truncated {
				b.Fatalf("found=%t truncated=%t err=%v", found, w.Stats.Truncated, err)
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=2", func(b *testing.B) { run(b, 2) })
	b.Run("workers=gomaxprocs", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkSymmetrySearch times the same exhaustive uniform-input Theorem 2
// search (MinWait{F:1}, four interchangeable processes, one late crash — no
// disagreement exists, so the whole space is visited) with orbit-canonical
// symmetry reduction off and on. The "on" variant is gated in CI
// (cmd/benchgate); both report their visited-node count as nodes/op, and
// benchgate prints the node delta alongside ns/op.
func BenchmarkSymmetrySearch(b *testing.B) {
	inputs := []sim.Value{0, 0, 0, 0}
	live := []sim.ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, symmetry bool) {
		visited := 0
		for i := 0; i < b.N; i++ {
			e := New(algorithms.MinWait{F: 1}, inputs, Options{
				Live:       live,
				MaxCrashes: 1,
				Workers:    1,
				Symmetry:   symmetry,
			})
			w, found, err := e.FindDisagreement()
			if err != nil || found || w.Stats.Truncated {
				b.Fatalf("found=%t truncated=%t err=%v", found, w.Stats.Truncated, err)
			}
			visited = w.Stats.Visited
		}
		b.ReportMetric(float64(visited), "nodes/op")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkPORSearch times the same exhaustive uniform-input Theorem 2
// search as BenchmarkSymmetrySearch (MinWait{F:1}, four processes, one late
// crash — no disagreement exists, so the whole space is visited) with
// partial-order reduction off and on, symmetry off in both so the POR axis
// is measured alone (the composed POR+symmetry figure is pinned by
// TestPORStrictReductionUniformTheorem2). The "on" variant is gated in CI
// (cmd/benchgate); both report their visited-node count as nodes/op, and
// benchgate prints the node delta alongside ns/op.
func BenchmarkPORSearch(b *testing.B) {
	inputs := []sim.Value{0, 0, 0, 0}
	live := []sim.ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, por bool) {
		visited := 0
		for i := 0; i < b.N; i++ {
			e := New(algorithms.MinWait{F: 1}, inputs, Options{
				Live:       live,
				MaxCrashes: 1,
				Workers:    1,
				POR:        por,
			})
			w, found, err := e.FindDisagreement()
			if err != nil || found || w.Stats.Truncated {
				b.Fatalf("found=%t truncated=%t err=%v", found, w.Stats.Truncated, err)
			}
			visited = w.Stats.Visited
		}
		b.ReportMetric(float64(visited), "nodes/op")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkFrontierOnlySearch times the same exhaustive uniform-input
// Theorem 2 search (MinWait{F:1}, four interchangeable processes, one late
// crash — no witness exists, so all ~42683 configurations are visited)
// under the in-memory store, which keeps every level's generation records,
// and the frontier-only store, which discards them. Both variants are gated
// in CI (cmd/benchgate) with the -benchmem B/op and allocs/op columns: the
// pair pins the time and the per-state allocation profile of each sink.
// Both report nodes/op (identical by the bit-identity guarantee; benchgate
// shows the delta, which must be zero).
func BenchmarkFrontierOnlySearch(b *testing.B) {
	inputs := []sim.Value{0, 0, 0, 0}
	live := []sim.ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, store Store) {
		b.ReportAllocs()
		visited := 0
		for i := 0; i < b.N; i++ {
			e := New(algorithms.MinWait{F: 1}, inputs, Options{
				Live:       live,
				MaxCrashes: 1,
				Workers:    1,
				Store:      store,
			})
			w, found, err := e.FindDisagreement()
			if err != nil || found || w.Stats.Truncated {
				b.Fatalf("found=%t truncated=%t err=%v", found, w.Stats.Truncated, err)
			}
			visited = w.Stats.Visited
		}
		b.ReportMetric(float64(visited), "nodes/op")
	}
	b.Run("inmem", func(b *testing.B) { run(b, StoreInMemory) })
	b.Run("frontier", func(b *testing.B) { run(b, StoreFrontierOnly) })
}

// BenchmarkPackedExpansion times the same exhaustive uniform-input Theorem 2
// search as BenchmarkFrontierOnlySearch (MinWait{F:1}, four processes, one
// late crash, ~42683 configurations) on the pointer configuration engine
// ("off") and the packed struct-of-arrays engine ("on"). Both variants are
// gated in CI (cmd/benchgate) with the -benchmem columns: the pair pins the
// packed engine's speedup AND its per-state allocation profile — the packed
// engine's reason to exist is the B/op and allocs/op columns. Both report
// nodes/op (identical by the bit-identity guarantee; benchgate shows the
// delta, which must be zero).
func BenchmarkPackedExpansion(b *testing.B) {
	inputs := []sim.Value{0, 0, 0, 0}
	live := []sim.ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, packed bool) {
		b.ReportAllocs()
		visited := 0
		for i := 0; i < b.N; i++ {
			e := onEngine(New(algorithms.MinWait{F: 1}, inputs, Options{
				Live:       live,
				MaxCrashes: 1,
				Workers:    1,
			}), packed)
			w, found, err := e.FindDisagreement()
			if err != nil || found || w.Stats.Truncated {
				b.Fatalf("found=%t truncated=%t err=%v", found, w.Stats.Truncated, err)
			}
			visited = w.Stats.Visited
		}
		b.ReportMetric(float64(visited), "nodes/op")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

func BenchmarkValence(b *testing.B) {
	inputs := []sim.Value{0, 1, 1}
	for i := 0; i < b.N; i++ {
		e := New(algorithms.MinWait{F: 1}, inputs, Options{Live: []sim.ProcessID{1, 2, 3}})
		vals, _, err := e.Valence(2)
		if err != nil || len(vals) < 2 {
			b.Fatalf("vals=%v err=%v", vals, err)
		}
	}
}

// BenchmarkOmissionSearch times the same exhaustive uniform-input Theorem 2
// search as BenchmarkSymmetrySearch (MinWait{F:1}, four processes, one late
// crash — uniform proposals, so no disagreement exists and the whole space
// is visited) with the fault substrate disarmed ("off": the crash-only
// adversary, which must stay bit-identical to the pre-fault engine) and
// with a budgeted send-omission adversary armed ("on": one omission event
// on one process). The "on" variant is gated in CI (cmd/benchgate); both
// report their visited-node count as nodes/op, so the baseline pins both
// the crash-only engine's unchanged node count and the exact size of the
// omission adversary's enlarged space alongside ns/op.
func BenchmarkOmissionSearch(b *testing.B) {
	inputs := []sim.Value{0, 0, 0, 0}
	live := []sim.ProcessID{1, 2, 3, 4}
	run := func(b *testing.B, faults FaultAdversary) {
		visited := 0
		for i := 0; i < b.N; i++ {
			e := New(algorithms.MinWait{F: 1}, inputs, Options{
				Live:       live,
				MaxCrashes: 1,
				MaxConfigs: 1 << 20,
				Workers:    1,
				Faults:     faults,
			})
			w, found, err := e.FindDisagreement()
			if err != nil || found || w.Stats.Truncated {
				b.Fatalf("found=%t truncated=%t err=%v", found, w.Stats.Truncated, err)
			}
			visited = w.Stats.Visited
		}
		b.ReportMetric(float64(visited), "nodes/op")
	}
	b.Run("off", func(b *testing.B) { run(b, FaultAdversary{}) })
	b.Run("on", func(b *testing.B) {
		run(b, FaultAdversary{Model: sim.FaultSendOmission, Budget: 1, MaxFaulty: 1})
	})
}
