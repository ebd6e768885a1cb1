// Command impossibility applies the Theorem 1 reduction engine to a
// candidate algorithm: it builds the partition, constructs the solo and
// pasted runs, searches the subsystem <D-bar> for a consensus failure, and
// prints the verdict with the witness run's decision census.
//
// Usage:
//
//	impossibility -alg minwait -n 5 -f 3 -k 2            # Theorem 2 setting
//	impossibility -alg quorummin -n 5 -k 2 -theorem10    # Theorem 10 setting
//	impossibility -alg firstheard -n 6 -k 3 -groups "1,2|3,4" -budget 1
//	impossibility -cpuprofile cpu.pprof -memprofile mem.pprof -strategy bfs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kset"
	"kset/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		algName   = flag.String("alg", "minwait", "algorithm: minwait, flpkset, sigmaomega, quorummin, decideown, firstheard, roundflood, singletonquorum")
		n         = flag.Int("n", 5, "number of processes")
		f         = flag.Int("f", 3, "fault parameter handed to the algorithm / Theorem 2 partition")
		k         = flag.Int("k", 2, "agreement parameter k")
		groups    = flag.String("groups", "", "explicit decider groups like \"1,2|3,4\" (default: Theorem 2 partition)")
		theorem10 = flag.Bool("theorem10", false, "use the Theorem 10 construction with partition failure detectors")
		budget    = flag.Int("budget", 1, "crash budget inside <D-bar>")
		maxCfg    = flag.Int("maxconfigs", 80000, "subsystem exploration budget")
		strategy  = flag.String("strategy", "dfs", "subsystem search order: dfs (deep, default) or bfs (shortest witnesses)")
		workers   = flag.Int("search-workers", 0, "worker goroutines per bfs frontier search (0 = GOMAXPROCS, 1 = sequential)")
		symmetry  = flag.Bool("symmetry", false, "orbit-canonical revisit detection in the <D-bar> search (no-op for the distinct proposals Theorem 1 requires; pays off for repeated-input vetting)")
		por       = flag.Bool("por", false, "partial-order reduction in the <D-bar> search (prunes interleavings of commuting steps once every live process has finished sending; composes with -symmetry)")
		store     = flag.String("store", "", "search memory regime: inmem (default; 8 B/state level log in memory), frontier (visited keys + two BFS levels only), or spill (level log on disk)")
		ckpt      = flag.String("checkpoint", "", "directory for pausing truncated <D-bar> searches and resuming them on the next run (requires -strategy bfs)")
		faults    = flag.String("faults", "", "fault model of the <D-bar> adversary beyond crashes: model[:budget[:maxfaulty]] with model send-omission, receive-omission, or byzantine (default crash-only)")
		verbose   = flag.Bool("v", false, "print the per-condition explanation")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
		memProf   = flag.String("memprofile", "", "write a heap profile, taken as the run ends, to this file (go tool pprof format)")
	)
	flag.Parse()
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impossibility:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "impossibility:", err)
			code = max(code, 1)
		}
	}()

	// One Searcher value carries every search knob (and validates the store
	// and fault spellings); both the Theorem 10 path and the generic engine
	// path below search through it, so a knob cannot be wired into one path
	// and silently dropped from the other.
	search, err := kset.NewSearcher(kset.Options{
		Workers:    *workers,
		Symmetry:   *symmetry,
		POR:        *por,
		Store:      *store,
		Checkpoint: *ckpt,
		Faults:     *faults,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *theorem10 {
		rep, merged, err := search.Theorem10Construction(context.Background(), *n, *k, *maxCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "theorem 10 construction: %v\n", err)
			return 1
		}
		fmt.Println(rep.Summary())
		if merged != nil {
			fmt.Printf("Lemma 12 merged run: %d distinct decisions across the %d partitions (indistinguishable: %t)\n",
				len(merged.Distinct), *k, merged.IndistinguishableOK)
		}
		if rep.Refuted {
			return 0
		}
		return 1
	}

	alg, algErr := pickAlgorithm(*algName, *f)
	if algErr != nil {
		fmt.Fprintln(os.Stderr, algErr)
		return 2
	}

	var spec kset.PartitionSpec
	if *groups != "" {
		gs, err := parseGroups(*groups)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -groups: %v\n", err)
			return 2
		}
		spec, err = kset.NewPartitionSpec(*n, *k, gs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		spec, err = kset.Theorem2Partition(*n, *f, *k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "Theorem 2 partition: %v\n", err)
			return 2
		}
	}

	// The Searcher stamps its knobs (workers, reductions, store, checkpoint,
	// faults) over the instance; only per-instance fields remain here.
	rep, err := search.CheckImpossibility(context.Background(), kset.ImpossibilityInstance{
		Alg:             alg,
		Inputs:          kset.DistinctInputs(*n),
		Spec:            spec,
		DBarCrashBudget: *budget,
		MaxConfigs:      *maxCfg,
		SearchStrategy:  *strategy,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		return 1
	}
	fmt.Println(rep.Summary())
	if *verbose {
		if err := rep.WriteExplanation(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "explanation: %v\n", err)
			return 1
		}
	}
	if rep.Pasted != nil {
		fmt.Printf("pasted run: %d events, decisions %v, blocked %v\n",
			len(rep.Pasted.Events), rep.DistinctDecided, rep.BlockedInPasted)
	}
	for i, decs := range rep.GroupDecisions {
		fmt.Printf("  D_%d solo decisions: %v\n", i+1, decs)
	}
	if rep.DBarWitness != nil {
		fmt.Printf("  D-bar witness: %s — %s (visited %d configurations)\n",
			rep.DBarWitness.Kind, rep.DBarWitness.Detail, rep.DBarWitness.Stats.Visited)
	}
	return 0
}

func pickAlgorithm(name string, f int) (kset.Algorithm, error) {
	return kset.NewAlgorithm(name, f)
}

func parseGroups(s string) ([][]kset.ProcessID, error) {
	var out [][]kset.ProcessID
	for _, g := range strings.Split(s, "|") {
		var ids []kset.ProcessID
		for _, part := range strings.Split(g, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			id, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("id %q: %w", part, err)
			}
			ids = append(ids, kset.ProcessID(id))
		}
		if len(ids) > 0 {
			out = append(out, ids)
		}
	}
	return out, nil
}
