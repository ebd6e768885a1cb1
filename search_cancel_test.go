package kset

import (
	"context"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/explore"
)

// TestFindConsensusFailureCancelledKeepsPhase cancels a consensus-failure
// search from OnProgress during its disagreement phase. The search must
// return that phase's result — what the progress stream reported — on the
// plain and the sharded path alike, not a blocking search started after the
// cancellation that stops at its first poll with nothing visited.
func TestFindConsensusFailureCancelledKeepsPhase(t *testing.T) {
	search, err := NewSearcher(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		find func(context.Context, SearchRequest) (*explore.Witness, bool, error)
	}{
		{"plain", search.FindConsensusFailure},
		{"shards=2", func(ctx context.Context, req SearchRequest) (*explore.Witness, bool, error) {
			return search.FindConsensusFailureSharded(ctx, req, 2)
		}},
	} {
		t.Run(run.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reported := -1
			w, found, err := run.find(ctx, SearchRequest{
				Alg:    algorithms.FLPKSet{F: 1},
				Inputs: DistinctInputs(3),
				Live:   []ProcessID{1, 2, 3},
				OnProgress: func(visited, level int) {
					if level == 3 {
						reported = visited
						cancel()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			want := explore.Stats{Visited: reported, Truncated: true, Cancelled: true}
			if found || w.Kind != "disagreement" || w.Stats != want || reported <= 0 {
				t.Fatalf("got (found=%t, %s, %+v), want the cancelled disagreement phase's %+v",
					found, w.Kind, w.Stats, want)
			}
		})
	}
}
