package explore

import (
	"context"
	"fmt"
	"os"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

// cancelInstance is the cancellation test workhorse: uniform inputs cannot
// disagree, so the space (1212 configurations) must be swept exhaustively —
// the search crosses the cancelInterval poll point mid-level exactly once,
// giving a deterministic cancellation cut.
func cancelInstance() diffInstance {
	return diffInstance{"minwait-n3-uniform", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0}, []sim.ProcessID{1, 2, 3}, 1}
}

func cancelExplorer(d diffInstance, ctx context.Context, onProgress func(int, int), store Store, workers, maxConfigs int, ckptDir string) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		MaxConfigs: maxConfigs,
		Workers:    workers,
		Store:      store,
		Checkpoint: ckptDir,
		Context:    ctx,
		OnProgress: onProgress,
	})
}

// TestCancelThenResumeParity is the acceptance gate of the cancellation
// layer: a search cancelled mid-flight with Options.Checkpoint set must pause
// through the exact truncation path — checkpoint file and all — and a later
// uncancelled search of the same instance must resume it and return the
// identical verdict and stats as an uninterrupted run.
func TestCancelThenResumeParity(t *testing.T) {
	d := cancelInstance()
	const fullBudget = 1000000
	refW, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if refFound || refW.Stats.Truncated {
		t.Fatalf("reference search: found=%t stats=%+v", refFound, refW.Stats)
	}
	for _, store := range []Store{StoreFrontierOnly, StoreSpill} {
		for _, workers := range [][2]int{{1, 1}, {1, 4}, {4, 1}} {
			dir := t.TempDir()
			// Cancel from the progress callback at the first sealed level:
			// the serial loop detects it at the next visited%cancelInterval
			// poll — visited 1024, strictly inside a level — so the pause is
			// a genuine mid-level cut, not a tidy level boundary.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w1, found1, err := cancelExplorer(d, ctx, func(visited, level int) {
				if visited > 0 {
					cancel()
				}
			}, store, workers[0], fullBudget, dir).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if found1 || !w1.Stats.Truncated || !w1.Stats.Cancelled {
				t.Fatalf("store=%v workers=%v: expected cancelled pause, got found=%t stats=%+v", store, workers, found1, w1.Stats)
			}
			if workers[0] == 1 && w1.Stats.Visited != cancelInterval {
				t.Fatalf("store=%v: serial cancellation landed at visited=%d, want %d (mid-level)", store, w1.Stats.Visited, cancelInterval)
			}
			if w1.Checkpoint == "" {
				t.Fatalf("store=%v workers=%v: cancelled search reported no checkpoint", store, workers)
			}
			if _, err := os.Stat(w1.Checkpoint); err != nil {
				t.Fatalf("store=%v workers=%v: checkpoint file missing: %v", store, workers, err)
			}
			// Resume without a context: the verdict and stats must be those
			// of the uninterrupted run, and the checkpoint must be cleared.
			w2, found2, err := ckptExplorer(d, store, workers[1], fullBudget, dir).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if found2 != refFound || w2.Stats != refW.Stats {
				t.Fatalf("store=%v workers=%v: resumed found=%t stats=%+v, uninterrupted found=%t stats=%+v",
					store, workers, found2, w2.Stats, refFound, refW.Stats)
			}
			if _, err := os.Stat(w1.Checkpoint); !os.IsNotExist(err) {
				t.Fatalf("store=%v workers=%v: checkpoint not removed after completion (err=%v)", store, workers, err)
			}
		}
	}
}

// TestCancelBeforeStartResumesToWitness covers the witness side of the
// parity contract on the small crash instance: a pre-cancelled context pauses
// the search before any expansion, and the resumed search must deliver the
// reference witness bit for bit.
func TestCancelBeforeStartResumesToWitness(t *testing.T) {
	d := ckptInstance()
	const fullBudget = 100000
	refW, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if !refFound {
		t.Fatalf("reference search found no witness: stats=%+v", refW.Stats)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	w1, found1, err := cancelExplorer(d, ctx, nil, StoreFrontierOnly, 1, fullBudget, dir).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if found1 || !w1.Stats.Cancelled || w1.Stats.Visited != 0 {
		t.Fatalf("pre-cancelled search: found=%t stats=%+v", found1, w1.Stats)
	}
	if w1.Checkpoint == "" {
		t.Fatal("pre-cancelled search reported no checkpoint")
	}
	w2, found2, err := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, dir).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if found2 != refFound || w2.Stats != refW.Stats {
		t.Fatalf("resumed found=%t stats=%+v, uninterrupted found=%t stats=%+v", found2, w2.Stats, refFound, refW.Stats)
	}
	if w2.Detail != refW.Detail || runSignature(w2.Run) != runSignature(refW.Run) {
		t.Fatal("resumed witness diverged from the uninterrupted witness")
	}
}

// TestCancelWithoutCheckpointJustStops pins the non-resumable paths: a
// cancelled search without Options.Checkpoint — breadth- or depth-first, at
// the in-memory or the frontier-only store — stops with Cancelled and
// Truncated set and no error, and reports no checkpoint.
func TestCancelWithoutCheckpointJustStops(t *testing.T) {
	d := cancelInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opts Options
	}{
		{"inmem-bfs", Options{Live: d.live, MaxCrashes: d.crashes, MaxConfigs: 1000000, Context: ctx}},
		{"inmem-dfs", Options{Live: d.live, MaxCrashes: d.crashes, MaxConfigs: 1000000, Strategy: "dfs", Context: ctx}},
		{"frontier-dfs", Options{Live: d.live, MaxCrashes: d.crashes, MaxConfigs: 1000000, Strategy: "dfs", Store: StoreFrontierOnly, Context: ctx}},
		{"frontier-bfs", Options{Live: d.live, MaxCrashes: d.crashes, MaxConfigs: 1000000, Store: StoreFrontierOnly, Context: ctx}},
	}
	for _, tc := range cases {
		w, found, err := New(sim.Restrict(d.alg, d.live), d.inputs, tc.opts).FindDisagreement()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if found || !w.Stats.Cancelled || !w.Stats.Truncated {
			t.Fatalf("%s: found=%t stats=%+v", tc.name, found, w.Stats)
		}
		if w.Checkpoint != "" {
			t.Fatalf("%s: checkpoint %q reported without Options.Checkpoint", tc.name, w.Checkpoint)
		}
	}
}

// TestUncancelledContextChangesNothing pins the transparency contract: a
// live (never-cancelled) context must leave verdict, stats, and witness
// bit-identical to a context-free run.
func TestUncancelledContextChangesNothing(t *testing.T) {
	for _, d := range []diffInstance{cancelInstance(), ckptInstance()} {
		ref, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, 1000000, "").FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		w, found, err := cancelExplorer(d, context.Background(), nil, StoreFrontierOnly, 1, 1000000, "").FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		if found != refFound || w.Stats != ref.Stats || w.Detail != ref.Detail {
			t.Fatalf("%s: with context found=%t stats=%+v, without found=%t stats=%+v",
				d.name, found, w.Stats, refFound, ref.Stats)
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its
// (cancelAfter+1)'th poll on (never, when cancelAfter < 0), counting polls.
type pollCtx struct {
	context.Context
	polls, cancelAfter int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.cancelAfter >= 0 && c.polls > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// TestCancelStopsValenceAnalyses pins cancellation of the valence searches:
// Valence with a cancelled context stops with Cancelled and Truncated set,
// and AnalyzeCriticalSteps stops at its first cancelled valence — before any
// step when the initial valence is cancelled, and with no step reported
// (none of them Forcing) when the first successor's is.
func TestCancelStopsValenceAnalyses(t *testing.T) {
	d := ckptInstance() // bivalent, nine first actions
	explorer := func(ctx context.Context) *Explorer {
		return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
			Live: d.live, MaxCrashes: d.crashes, Workers: 1, Context: ctx,
		})
	}
	count := &pollCtx{Context: context.Background(), cancelAfter: -1}
	ref, refStats, err := explorer(count).Valence(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 2 || refStats.Truncated || count.polls == 0 {
		t.Fatalf("reference valence %v stats=%+v after %d polls", ref, refStats, count.polls)
	}

	vals, stats, err := explorer(&pollCtx{Context: context.Background()}).Valence(0)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Cancelled || !stats.Truncated || stats.Visited != 0 || len(vals) != 0 {
		t.Fatalf("cancelled valence: values=%v stats=%+v", vals, stats)
	}
	an, err := explorer(&pollCtx{Context: context.Background()}).AnalyzeCriticalSteps()
	if err != nil {
		t.Fatal(err)
	}
	if !an.Stats.Cancelled || !an.Stats.Truncated || len(an.Steps) != 0 {
		t.Fatalf("pre-cancelled analysis: stats=%+v steps=%+v", an.Stats, an.Steps)
	}

	// Cancel on the first successor's first poll: the initial valence
	// completes, and the analysis stops with no step.
	an, err = explorer(&pollCtx{Context: context.Background(), cancelAfter: count.polls}).AnalyzeCriticalSteps()
	if err != nil {
		t.Fatal(err)
	}
	if !an.Stats.Cancelled || !an.Stats.Truncated || len(an.Steps) != 0 || an.Stats.Visited != refStats.Visited {
		t.Fatalf("analysis cancelled after its initial valence: stats=%+v steps=%+v", an.Stats, an.Steps)
	}
	if !an.Bivalent || fmt.Sprint(an.InitialValues) != fmt.Sprint(ref) {
		t.Fatalf("initial values %v, want %v", an.InitialValues, ref)
	}
}
