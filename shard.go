package kset

import (
	"context"
	"fmt"
	"sync"

	"kset/internal/explore"
)

// Sharded condition-(C) search: FindConsensusFailure run by N participants,
// each an explorer holding the whole search, that split every BFS chunk's
// expansion by fingerprint ownership (explore.ShardOwner) and join it with
// one all-gather round (see internal/explore/shard.go for the round and the
// argument). The Searcher exposes two entry points:
//
//   - FindConsensusFailureSharded runs every participant in process over an
//     explore.LocalShardHub: the reference the differential tests and
//     experiment E15 compare against the plain search.
//   - ShardParticipant runs one participant against a caller-supplied
//     exchange: internal/service builds the multi-process `-shards N` mode
//     from it, with participant 0 in the coordinator process and the others
//     in worker processes talking to its hub over localhost HTTP.
//
// Verdicts, stats, and witnesses are bit-identical to the single-process
// FindConsensusFailure at any shard count.

// ShardParticipant runs participant shard of shards of a sharded
// FindConsensusFailure over ex. Every participant must run it for the same
// request under an identically configured Searcher; each returns
// FindConsensusFailure's result. Only participant 0 reports progress. A
// participant that fails should fail the exchange (explore.LocalShardHub's
// Fail) so the others unblock. Searchers with a Checkpoint are rejected.
func (s *Searcher) ShardParticipant(ctx context.Context, req SearchRequest, shard, shards int, ex explore.ShardExchange) (*explore.Witness, bool, error) {
	e := s.explorer(ctx, req)
	if err := e.Shard(shard, shards, ex); err != nil {
		return nil, false, err
	}
	return consensusFailure(e)
}

// FindConsensusFailureSharded is FindConsensusFailure run by `shards`
// in-process participants. Results are bit-identical to the plain search —
// same witness, same found flag, same stats — at any shard count; shards ==
// 1 runs the kernel's fan-out with one round per chunk. Cancellation behaves
// as in FindConsensusFailure: a cancelled ctx stops every participant at the
// next chunk and the search comes back truncated with Stats.Cancelled set.
func (s *Searcher) FindConsensusFailureSharded(ctx context.Context, req SearchRequest, shards int) (*explore.Witness, bool, error) {
	hub := explore.NewLocalShardHub(shards)
	participate := func(shard int) (*explore.Witness, bool, error) {
		w, found, err := s.ShardParticipant(ctx, req, shard, shards, hub.Participant(shard))
		if err != nil {
			err = fmt.Errorf("kset: shard %d: %w", shard, err)
			hub.Fail(err)
		}
		return w, found, err
	}
	var wg sync.WaitGroup
	for i := 1; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			participate(shard)
		}(i)
	}
	w, found, err := participate(0)
	wg.Wait()
	return w, found, err
}
