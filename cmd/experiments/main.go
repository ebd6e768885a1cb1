// Command experiments regenerates every experiment table of the
// reproduction (E1-E12; see EXPERIMENTS.md for the index mapping each
// experiment to the paper's theorems and lemmas).
//
// Usage:
//
//	experiments                          # run the full suite
//	experiments E1 E5                    # run selected experiments
//	experiments -search-workers 1 E6     # force sequential frontier search
//	experiments -symmetry -por E6        # both search-space reductions (README, Reductions)
//	experiments -write-golden testdata/golden E1 E2   # refresh golden tables
//
// -write-golden writes each selected experiment's rendered table to
// <dir>/<ID>.txt (without the wall-clock footer, which is not
// deterministic); the repository's golden_test.go diffs regenerated tables
// against the committed files.
//
// A second mode runs one verification job instead of the experiment suite:
//
//	experiments -instance '{"alg":"minwait","n":3,"f":1,"goal":"search"}'
//	experiments -instance '...' -shards 4        # multi-process sharded search
//
// -instance takes a service.InstanceSpec JSON document, runs it to
// completion, and prints a single canonical JSON object
// {"verdict": ..., "progress": [[visited, level], ...]} on stdout. With
// -shards N > 1 the search runs as N participants: this process plus N-1
// worker processes (re-execs of this binary), joined by one all-gather
// round per BFS chunk over localhost HTTP; the output — verdict, visited
// count, and per-level profile — is bit-identical to -shards 1, which CI
// enforces by diffing the two. The -shard-worker/-shard-index flags are the
// internal re-exec entry point of those workers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kset"
	"kset/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	sweepWorkers := fs.Int("sweep-workers", 0, "worker pool for independent sweep cells (0 = GOMAXPROCS, 1 = sequential)")
	searchWorkers := fs.Int("search-workers", 0, "worker goroutines per frontier search (0 = GOMAXPROCS, 1 = sequential)")
	symmetry := fs.Bool("symmetry", false, "orbit-canonical revisit detection in state-space searches (collapses process-renamed configurations; see README, Reductions)")
	por := fs.Bool("por", false, "partial-order reduction in state-space searches (prunes interleavings of commuting steps once sending is over; composes with -symmetry; see README, Reductions)")
	store := fs.String("store", "", "search memory regime: inmem (default; 8 B/state level log in memory), frontier (visited keys + two BFS levels only), or spill (level log on disk); see README, Memory & checkpoints")
	checkpoint := fs.String("checkpoint", "", "directory for pausing truncated breadth-first searches and resuming them on the next run")
	faults := fs.String("faults", "", "fault model of state-space search adversaries beyond crashes: model[:budget[:maxfaulty]] with model send-omission, receive-omission, or byzantine (default crash-only); see README, Fault models")
	packed := fs.String("packed", "", "configuration engine: off (default, pointer-based) or on/auto (packed struct-of-arrays records where the algorithm supports them; bit-identical results, lower memory and time); see README, Packed engine")
	writeGolden := fs.String("write-golden", "", "write each table to <dir>/<ID>.txt instead of stdout")
	instance := fs.String("instance", "", "run one verification job (service.InstanceSpec JSON) instead of the experiment suite and print its verdict and level profile as JSON")
	shards := fs.Int("shards", 1, "participants in the -instance search: this process plus shards-1 worker processes (1 = single-process; results are bit-identical at every count)")
	shardWorker := fs.String("shard-worker", "", "internal: run as a shard worker against this coordinator URL")
	shardIndex := fs.Int("shard-index", -1, "internal: participant index (1 or more) for -shard-worker")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shardWorker != "" {
		if err := service.ShardWorkerMain(context.Background(), *shardWorker, *shardIndex); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if *instance != "" {
		return runInstance(*instance, *shards)
	}
	if *shards != 1 {
		fmt.Fprintln(os.Stderr, "experiments: -shards requires -instance")
		return 2
	}
	// One Searcher value carries every search knob (and validates the store
	// and fault spellings) into the search-driven experiments; SweepWorkers
	// is experiment plumbing, not a search knob.
	search, err := kset.NewSearcher(kset.Options{
		Workers:    *searchWorkers,
		Symmetry:   *symmetry,
		POR:        *por,
		Store:      *store,
		Checkpoint: *checkpoint,
		Faults:     *faults,
		Packed:     *packed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	kset.SweepWorkers = *sweepWorkers

	want := make(map[string]bool, fs.NArg())
	for _, a := range fs.Args() {
		want[a] = true
	}
	failed := 0
	for _, e := range kset.ExperimentsWith(search) {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if *writeGolden != "" {
			if err := os.MkdirAll(*writeGolden, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failed++
				continue
			}
			path := filepath.Join(*writeGolden, e.ID+".txt")
			if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failed++
				continue
			}
			fmt.Printf("wrote %s  (%s completed in %v)\n", path, e.ID, time.Since(start).Round(time.Millisecond))
			continue
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return min(failed, 1)
}

// runInstance runs one verification job — sharded across this process and
// shards-1 worker processes when shards > 1 — and prints {"verdict", "progress"} as one canonical
// JSON object. Degradation notices are skipped: progress holds only the
// deterministic (visited, level) pairs the sharded CI smoke diffs.
func runInstance(specJSON string, shards int) int {
	dec := json.NewDecoder(strings.NewReader(specJSON))
	dec.DisallowUnknownFields()
	var spec service.InstanceSpec
	if err := dec.Decode(&spec); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: malformed -instance: %v\n", err)
		return 2
	}
	progress := [][2]int{}
	collect := func(u service.ProgressUpdate) {
		if u.Degraded != "" {
			return
		}
		progress = append(progress, [2]int{u.Visited, u.Level})
	}
	var verdict *service.Verdict
	var err error
	if shards > 1 {
		exe, eerr := os.Executable()
		if eerr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", eerr)
			return 1
		}
		verdict, err = service.RunShardedSearch(context.Background(), service.ShardConfig{
			Spec:   spec,
			Shards: shards,
			WorkerArgs: func(coordURL string, shard int) []string {
				return []string{exe, "-shard-worker", coordURL, "-shard-index", strconv.Itoa(shard)}
			},
			OnProgress: collect,
		})
	} else {
		verdict, err = service.KsetRunner{}.Run(context.Background(), spec, collect)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Verdict  *service.Verdict `json:"verdict"`
		Progress [][2]int         `json:"progress"`
	}{verdict, progress}); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	return 0
}
