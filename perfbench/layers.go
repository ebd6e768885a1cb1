package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// layerMetric is a per-layer metric of the traced run: what it times and,
// written down before measuring, which end-to-end metric on which workload it
// should move and where it should not.
type layerMetric struct {
	name, unit, measures, moves, flat string
}

// layerMetrics are the per-layer metrics, grouped by the repository's
// modules: sim (with algorithms, sched and fd), explore, core and service;
// the kset facade is a pass-through and is timed as part of the layer it
// calls. Counts marked exact repeat exactly from run to run.
var layerMetrics = []layerMetric{
	{"sim.clone_us", "us", "Configuration.CloneInto, batches of 64 along a seeded walk of the heavy exhaust instance", "exhaust op_p50_ms, states_per_s", "serve hit_p50_ms"},
	{"sim.apply_us", "us", "Configuration.ApplyQuiet, batches of 64 along the same walk", "exhaust op_p50_ms, states_per_s", "serve hit_p50_ms"},
	{"sim.solo_ms", "ms", "sim.Execute with sched.Solo for each decider group of a vet probe check (mean over one round of every cell)", "serve op_p50_ms (cold Theorem 1 jobs)", "exhaust"},
	{"sim.indist_ms", "ms", "sim.IndistinguishableForAll on a vet report's solo, witness and pasted runs (mean)", "serve op_p50_ms (cold Theorem 1 jobs)", "exhaust"},
	{"sim.pasted_events", "count", "events of a vet report's pasted run (median check; exact)", "serve op_p50_ms (cold Theorem 1 jobs)", "exhaust"},
	{"explore.states", "count", "states one search of the heavy exhaust instance (n=6, f=2) visits, Witness.Stats (exact, pinned)", "pinned: any change is a failed op", "-"},
	{"explore.levels", "count", "BFS levels one search of the heavy exhaust instance seals, OnProgress (exact, pinned)", "pinned: any change is a failed op", "-"},
	{"explore.level_ms_max", "ms", "longest time between OnProgress callbacks of the heavy exhaust op", "exhaust op_p90_ms", "serve"},
	{"explore.peak_level_states", "count", "most states visited between OnProgress callbacks (exact)", "exhaust peak_rss_mb", "serve"},
	{"explore.serial_ms", "ms", "the heavy exhaust op (n=6, f=2) at Workers 1: the base of the two ratios", "exhaust op_p90_ms", "serve"},
	{"explore.workers2_ratio", "ratio", "the heavy exhaust op at Workers 2 / the serial op", "none today: shows the workers=2 inversion", "-"},
	{"explore.shard2_ratio", "ratio", "FindConsensusFailureSharded at 2 in-process shards / the serial op", "none today: shows shard overhead", "-"},
	{"explore.subsystem_ms", "ms", "re-run of a vet check's D-bar search via explore.New(sim.Restrict(...)) with core's options (mean)", "serve op_p50_ms, states_per_s", "serve hit_p50_ms"},
	{"core.check_ms", "ms", "Searcher.CheckImpossibility of a vet probe check (mean)", "serve op_p50_ms, op_p90_ms", "exhaust"},
	{"core.self_ms", "ms", "check minus the attributed solo, subsystem and indist re-runs (mean)", "serve op_p50_ms, op_p90_ms", "exhaust"},
	{"service.digest_ms", "ms", "KsetRunner.Digest of a cold spec, re-run", "serve hit_p50_ms, op_p50_ms", "exhaust"},
	{"service.run_ms", "ms", "KsetRunner.Run of a cold spec, re-run", "serve op_p50_ms", "exhaust"},
	{"service.wait_ms", "ms", "from the 202 reply to the poll that sees done, on the durable server", "serve op_p50_ms", "exhaust"},
	{"service.polls_per_job", "count", "status polls per cold job, the client yielding between polls, on the durable server", "serve op_p50_ms", "exhaust"},
	{"service.journal_append_ms", "ms", "Journal.Append (fsync'd) on a scratch journal", "none gated: serve's measured server keeps no journal", "-"},
	{"service.journal_records_per_job", "count", "journal lines the durable server writes per cold job (exact)", "none gated: serve's measured server keeps no journal", "-"},
	{"service.cache_put_ms", "ms", "DiskCache.Put on a scratch directory", "none gated: serve's measured server caches in memory", "-"},
	{"service.cache_get_ms", "ms", "DiskCache.Get on a scratch directory", "none gated: serve's measured server caches in memory", "-"},
	{"service.cache_hits", "count", "GET /v1/cache/stats hits after the probe; must equal the trace (exact)", "-", "-"},
	{"service.cache_misses", "count", "GET /v1/cache/stats misses after the probe; must equal the trace (exact)", "-", "-"},
	{"service.recover_ms", "ms", "OpenJournal + New on a journal of 180 accepted jobs, until /readyz is ready and the jobs are done", "none gated: serve's measured server keeps no journal", "-"},
	{"trace.overhead_ms", "ms", "traced minus untraced op_p50_ms of the run's workload, ops interleaved", "-", "-"},
}

// probes run in every traced run, whatever its workload, so each traced run
// reports every per-layer metric. Their sizes are fixed, so their exact
// counts do not depend on the seed. Each runs at a fixed GOMAXPROCS (0: one
// P per CPU): the serve probe at the workloads', the others at one per CPU,
// which the Workers 2 and two-shard variants need.
var probes = []struct {
	name  string
	procs int
	run   func(seed uint64, tr *tracer, m map[string]float64) (attempted, failed int, err error)
}{
	{"exhaust", 0, probeExhaust},
	{"vet", 0, probeVet},
	{"serve", workloadProcs, probeServe},
}

// runTraced is the traced run. It drives the workload's ops for the given
// seconds, alternating untraced and traced ops after a first warm-up op, to
// measure the tracing overhead, then runs the fixed-size traced probe of every layer and prints
// the per-layer metrics. The spans are written to .bench_build when it ends.
func runTraced(name string, seed uint64, seconds int) (*result, error) {
	spec := workloads[name]
	w, err := spec.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	ops := newTracer(name)
	// The first op warms the process up and belongs to neither side.
	var warm, plain, traced tally
	runOps(w, spec, time.Duration(seconds)*time.Second, func(i int) (*tally, *tracer) {
		switch {
		case i == 0:
			return &warm, nil
		case i%2 == 1:
			return &plain, nil
		}
		return &traced, ops
	}, nil)
	if err := w.close(); err != nil {
		return nil, err
	}
	attempted := warm.attempted + plain.attempted + traced.attempted
	failed := warm.failed + plain.failed + traced.failed
	for _, e := range append(append(warm.errs, plain.errs...), traced.errs...) {
		fmt.Printf("  failed op: %s\n", e)
	}
	pst, tst := statsOf(plain.ops), statsOf(traced.ops)
	values := map[string]float64{"trace.overhead_ms": tst.p50 - pst.p50}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=1 ops=%d failed=%d\n", name, seed, seconds, attempted, failed)
	fmt.Printf("  tracing overhead: %s op_p50_ms untraced %.4f (n=%d) traced %.4f (n=%d): %+.4f ms\n",
		name, pst.p50, pst.ops, tst.p50, tst.ops, values["trace.overhead_ms"])

	tracers := []*tracer{ops}
	for _, p := range probes {
		setProcs(p.procs)
		tr := newTracer("probe-" + p.name)
		a, f, err := p.run(seed, tr, values)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
		attempted, failed = attempted+a, failed+f
		tracers = append(tracers, tr)
	}
	path := filepath.Join(scratchRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, tracers); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	notes := map[string]string{}
	for _, lm := range layerMetrics {
		v, ok := values[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		m[lm.name] = metric{v, lm.unit}
		notes[lm.name] = fmt.Sprintf("moves: %s | flat: %s", lm.moves, lm.flat)
	}
	printMetrics(m, notes)
	fmt.Println("  median self time by span (span minus its children), ms:")
	for _, tr := range tracers {
		self := tr.selfByName()
		names := make([]string, 0, len(self))
		for k := range self {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("    %-16s %-24s %10.4f\n", tr.name, k, self[k])
		}
	}
	fmt.Printf("  spans: %s\n", path)
	return finish(attempted, failed, m)
}
