package kset

import (
	"context"
	"fmt"
	"strings"

	"kset/internal/algorithms"
	"kset/internal/explore"
)

// E15Params parameterizes the sharded-exploration experiment: small
// consensus-failure searches run plain and then sharded across in-process
// worker explorers, with every result asserted bit-identical.
type E15Params struct {
	// MaxConfigs bounds the truncation row's search; BlockingMaxConfigs
	// bounds the blocking row's (large enough to reach its witness, small
	// enough to keep the golden gate at milliseconds — the full FLPKSet
	// space costs seconds per sweep cell).
	MaxConfigs         int
	BlockingMaxConfigs int
	// Shards lists the shard counts swept per instance.
	Shards []int
	// Search supplies the base search configuration; nil means default
	// options. E15 strips its Checkpoint: sharded searches do not
	// checkpoint.
	Search *Searcher
}

// DefaultE15Params returns the instance used by cmd/experiments: shard
// counts {1, 2, 4} over millisecond-scale searches.
func DefaultE15Params() E15Params {
	return E15Params{MaxConfigs: 100, BlockingMaxConfigs: 500, Shards: []int{1, 2, 4}}
}

// e15Instance is one searched system of the E15 sweep.
type e15Instance struct {
	label      string
	req        SearchRequest
	maxConfigs int
}

// ExperimentShardedExploration (E15) exercises the multi-process sharding
// substrate's core invariant in-process: partitioning the fingerprint space
// across N worker explorers (explore.ShardOwner, level-synchronous frontier
// exchange) changes how the search is executed, never what it computes. Each
// instance runs the plain FindConsensusFailure once, then
// FindConsensusFailureSharded at every shard count; outcome, witness
// detail, visited count, and per-level profile must match bit for bit —
// covering a disagreement witness, a blocking witness, and a mid-level
// truncation. The multi-process form of the same guarantee (worker
// processes exchanging frontiers with a coordinator over localhost HTTP
// behind `-shards N`) is exercised by the process tests in
// internal/service and the CI sharded smoke, which diff the full verdict
// JSON across shard counts.
func ExperimentShardedExploration(p E15Params) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Sharded exploration: bit-identical verdicts at every shard count",
		Columns: []string{
			"instance", "mode", "outcome", "visited", "profile", "match",
		},
		Notes: []string{
			"mode plain is the single-explorer FindConsensusFailure baseline; shards=N partitions the",
			"fingerprint space across N worker explorers with level-synchronous frontier exchange;",
			"profile is the cumulative visited count at each sealed BFS level; every sharded row is",
			"asserted bit-identical to its plain baseline (outcome, detail, visited, profile)",
		},
	}

	base := orDefault(p.Search).Options()
	base.Checkpoint = ""
	search, err := NewSearcher(base)
	if err != nil {
		return nil, fmt.Errorf("E15: %w", err)
	}

	instances := []e15Instance{
		{
			label: "minwait(1) n=3 budget=1",
			req: SearchRequest{
				Alg:         algorithms.MinWait{F: 1},
				Inputs:      DistinctInputs(3),
				Live:        []ProcessID{1, 2, 3},
				CrashBudget: 1,
			},
		},
		{
			label: fmt.Sprintf("flpkset(1) n=3 budget=0 max=%d", p.BlockingMaxConfigs),
			req: SearchRequest{
				Alg:    algorithms.FLPKSet{F: 1},
				Inputs: DistinctInputs(3),
				Live:   []ProcessID{1, 2, 3},
			},
			maxConfigs: p.BlockingMaxConfigs,
		},
		{
			label: fmt.Sprintf("flpkset(1) n=3 budget=0 max=%d", p.MaxConfigs),
			req: SearchRequest{
				Alg:    algorithms.FLPKSet{F: 1},
				Inputs: DistinctInputs(3),
				Live:   []ProcessID{1, 2, 3},
			},
			maxConfigs: p.MaxConfigs,
		},
	}

	type outcome struct {
		kind, detail, profile string
		found                 bool
		visited               int
	}
	describe := func(w *explore.Witness, found bool, profile []int) outcome {
		o := outcome{found: found, visited: w.Stats.Visited, profile: e15Profile(profile)}
		if found {
			o.kind, o.detail = w.Kind, w.Detail
		} else if w.Stats.Truncated {
			o.kind = "truncated"
		} else {
			o.kind = "no witness"
		}
		return o
	}

	for _, inst := range instances {
		req := inst.req
		req.MaxConfigs = inst.maxConfigs
		var profile []int
		req.OnProgress = func(visited, level int) { profile = append(profile, visited) }
		w, found, err := search.FindConsensusFailure(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("E15: %s: %w", inst.label, err)
		}
		want := describe(w, found, profile)
		t.AddRow(inst.label, "plain", want.kind, want.visited, want.profile, "baseline")

		for _, shards := range p.Shards {
			profile = nil
			w, found, err := search.FindConsensusFailureSharded(context.Background(), req, shards)
			if err != nil {
				return nil, fmt.Errorf("E15: %s shards=%d: %w", inst.label, shards, err)
			}
			got := describe(w, found, profile)
			if got != want {
				return nil, fmt.Errorf("E15: %s shards=%d diverged: %+v vs plain %+v",
					inst.label, shards, got, want)
			}
			t.AddRow(inst.label, fmt.Sprintf("shards=%d", shards), got.kind, got.visited, got.profile, "ok")
		}
	}
	return t, nil
}

// e15Profile renders a per-level visited profile for the golden table.
func e15Profile(profile []int) string {
	if len(profile) == 0 {
		return "-"
	}
	parts := make([]string, len(profile))
	for i, v := range profile {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}
