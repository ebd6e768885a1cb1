package explore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kset/internal/sim"
	"kset/internal/testutil"
)

// TestShardOwnerProperty checks the ownership function's contract over
// boundary keys and a deterministic pseudo-random sample: every key has
// exactly one owner (ShardOwner is total and in-range) at any shard count,
// ownership is stable, one shard owns everything at shards == 1, and the
// fixed-point arithmetic matches the wide-integer reference
// floor(top32(key) * shards / 2^32).
func TestShardOwnerProperty(t *testing.T) {
	keys := []uint64{
		0, 1, math.MaxUint64, math.MaxUint64 - 1,
		1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, 1<<63 - 1,
		0xffffffff00000000, 0x00000000ffffffff,
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys = append(keys, x)
	}
	for _, shards := range []int{1, 2, 3, 4, 5, 7, 8, 13, 64, 1000} {
		counts := make([]int, shards)
		for _, key := range keys {
			o := ShardOwner(key, shards)
			if o < 0 || o >= shards {
				t.Fatalf("ShardOwner(%#x, %d) = %d out of range", key, shards, o)
			}
			if o2 := ShardOwner(key, shards); o2 != o {
				t.Fatalf("ShardOwner(%#x, %d) unstable: %d then %d", key, shards, o, o2)
			}
			hi, _ := bits.Mul64(key>>32<<32, uint64(shards))
			if want := int(hi); o != want {
				t.Fatalf("ShardOwner(%#x, %d) = %d, wide reference %d", key, shards, o, want)
			}
			counts[o]++
		}
		if shards == 1 && counts[0] != len(keys) {
			t.Fatalf("single shard owns %d of %d keys", counts[0], len(keys))
		}
		// The sample is splitmix-diffused, as real fingerprints are; every
		// shard of a reasonable count should own a nontrivial slice.
		if shards <= 8 {
			for o, c := range counts {
				if c == 0 {
					t.Fatalf("shard %d of %d owns no keys from a %d-key uniform sample", o, shards, len(keys))
				}
			}
		}
	}
}

// shardOutcome is one participant's result of a sharded search, with the
// digest of the visited-key sets its searches sealed.
type shardOutcome struct {
	w     *Witness
	found bool
	keys  string
}

// consensusFailureWithKeys runs FindConsensusFailure on e and digests the
// visited-key sets of its searches.
func consensusFailureWithKeys(e *Explorer) (shardOutcome, error) {
	var sets []*visitedSet
	e.onVisited = func(v *visitedSet) { sets = append(sets, v) }
	w, found, _, err := e.FindConsensusFailure()
	return shardOutcome{w: w, found: found, keys: keysDigest(sets)}, err
}

// runShardedConsensusFailure drives a full sharded consensus-failure search
// in process, as kset.Searcher.FindConsensusFailureSharded composes it, and
// returns every participant's outcome.
func runShardedConsensusFailure(mk func() *Explorer, shards int) ([]shardOutcome, error) {
	return runSharded(mk, shards, consensusFailureWithKeys)
}

// runSharded runs `shards` goroutine participants, each on its own explorer
// from mk, over a LocalShardHub, and returns what run gives on each.
func runSharded[T any](mk func() *Explorer, shards int, run func(*Explorer) (T, error)) ([]T, error) {
	hub := NewLocalShardHub(shards)
	out := make([]T, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			e := mk()
			err := e.Shard(shard, shards, hub.Participant(shard))
			if err == nil {
				out[shard], err = run(e)
			}
			if err != nil {
				errs[shard] = fmt.Errorf("participant %d: %w", shard, err)
				hub.Fail(errs[shard])
			}
		}(i)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// shardDiffOpts is the reduction/store matrix of the sharded differential
// tests.
type shardDiffOpts struct {
	name     string
	symmetry bool
	por      bool
	store    Store
}

func shardDiffMatrix() []shardDiffOpts {
	return []shardDiffOpts{
		{name: "plain", store: StoreInMemory},
		{name: "sym", symmetry: true, store: StoreInMemory},
		{name: "por", por: true, store: StoreInMemory},
		{name: "sym-por-spill", symmetry: true, por: true, store: StoreSpill},
	}
}

func (d diffInstance) explorerOpts(o shardDiffOpts, maxConfigs int) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		Symmetry:   o.symmetry,
		POR:        o.por,
		Store:      o.store,
		MaxConfigs: maxConfigs,
		Workers:    1,
	})
}

// TestShardedSearchMatchesSequential is the sharded differential matrix:
// instances × reductions/stores × shard counts {1, 2, 3, 4}, asserting that
// every participant of the sharded search returns the single-process
// consensus-failure search's result bit for bit — found flag, witness
// kind/detail, scheduled witness run, and stats — and seals the same
// visited keys, and that found witnesses replay to genuine violations.
func TestShardedSearchMatchesSequential(t *testing.T) {
	for _, d := range diffInstances() {
		for _, o := range shardDiffMatrix() {
			t.Run(d.name+"/"+o.name, func(t *testing.T) {
				want, err := consensusFailureWithKeys(d.explorerOpts(o, 0))
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{1, 2, 3, 4} {
					outs, err := runShardedConsensusFailure(func() *Explorer {
						return d.explorerOpts(o, 0)
					}, shards)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					for i, got := range outs {
						if got.found != want.found {
							t.Fatalf("shards=%d participant %d: found=%t, sequential says %t", shards, i, got.found, want.found)
						}
						if got.w.Kind != want.w.Kind || got.w.Detail != want.w.Detail {
							t.Fatalf("shards=%d participant %d: witness (%s, %q), sequential (%s, %q)",
								shards, i, got.w.Kind, got.w.Detail, want.w.Kind, want.w.Detail)
						}
						if got.w.Stats != want.w.Stats {
							t.Fatalf("shards=%d participant %d: stats %+v, sequential %+v", shards, i, got.w.Stats, want.w.Stats)
						}
						if got.keys != want.keys {
							t.Fatalf("shards=%d participant %d: visited keys %s, sequential %s", shards, i, got.keys, want.keys)
						}
						if got.found {
							if runSignature(got.w.Run) != runSignature(want.w.Run) {
								t.Fatalf("shards=%d participant %d: witness run diverged:\n got %s\nwant %s",
									shards, i, runSignature(got.w.Run), runSignature(want.w.Run))
							}
							testutil.RevalidateWitness(t, got.w.Kind, got.w.Run)
						}
					}
				}
			})
		}
	}
}

// TestShardedSearchTruncationParity pins the budget arithmetic: truncated
// sharded searches (including mid-level truncation, where the budget runs
// out partway through a frontier) report exactly the sequential engine's
// visited counts and flags on every participant.
func TestShardedSearchTruncationParity(t *testing.T) {
	d := diffInstances()[1] // minwait-n3-crash: a larger space with witnesses
	for _, maxConfigs := range []int{1, 7, 57, 200, 1000} {
		seq := d.explorerOpts(shardDiffOpts{store: StoreFrontierOnly}, maxConfigs)
		want, wantFound, _, err := twoSearches(seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			outs, err := runShardedConsensusFailure(func() *Explorer {
				return d.explorerOpts(shardDiffOpts{store: StoreFrontierOnly}, maxConfigs)
			}, shards)
			if err != nil {
				t.Fatalf("max=%d shards=%d: %v", maxConfigs, shards, err)
			}
			for i, got := range outs {
				if got.found != wantFound || got.w.Stats != want.Stats {
					t.Fatalf("max=%d shards=%d participant %d: (found=%t, %+v), sequential (found=%t, %+v)",
						maxConfigs, shards, i, got.found, got.w.Stats, wantFound, want.Stats)
				}
			}
		}
	}
}

// TestShardedSearchCancelParity cancels a sharded search from participant
// 0's OnProgress at a level boundary. The stop bit must end the search at
// the next chunk on every participant, each reporting the Stats of a
// Workers 2 search cancelled at the same boundary, and every participant
// must return.
func TestShardedSearchCancelParity(t *testing.T) {
	d := diffInstances()[3] // flpkset-n3: an exhaustive disagreement phase of many levels
	const level = 3
	cancelAt := func(workers int) *Explorer {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
			Live:       d.live,
			MaxCrashes: d.crashes,
			Workers:    workers,
			Context:    ctx,
			OnProgress: func(_, l int) {
				if l == level {
					cancel()
				}
			},
		})
	}
	want, wantFound, _, err := twoSearches(cancelAt(2))
	if err != nil {
		t.Fatal(err)
	}
	if wantFound || !want.Stats.Cancelled || !want.Stats.Truncated || want.Stats.Visited == 0 {
		t.Fatalf("reference search was not cancelled mid-search: found=%t %+v", wantFound, want.Stats)
	}
	for _, shards := range []int{2, 3} {
		done := make(chan struct{})
		var outs []shardOutcome
		go func() {
			defer close(done)
			outs, err = runShardedConsensusFailure(func() *Explorer { return cancelAt(1) }, shards)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("shards=%d: participants did not return after cancellation", shards)
		}
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, got := range outs {
			if got.found || got.w.Stats != want.Stats {
				t.Fatalf("shards=%d participant %d: (found=%t, %+v), Workers 2 (found=%t, %+v)",
					shards, i, got.found, got.w.Stats, wantFound, want.Stats)
			}
		}
	}
}

// TestShardedSearchRejectsForgedCandidates feeds a participant remote
// winners that no honest participant posts: each must fail its search in
// the round that carries it instead of entering the merge.
func TestShardedSearchRejectsForgedCandidates(t *testing.T) {
	d := diffInstances()[2] // minwait-n4-sub3: process 3 is crashed from the start
	bits := func(parent int32, proc sim.ProcessID) uint64 {
		return recBits(levelRec{parent: parent, act: action{Proc: proc, Mode: DeliverNone}})
	}
	for _, c := range []struct {
		name string
		cand ShardCandidate
		want string
	}{
		{"wrong key", ShardCandidate{Key: 123, Ord: 0, Bits: bits(0, 1)}, "rebuilds to key"},
		{"parent beyond chunk", ShardCandidate{Key: 123, Ord: 1 << ordShift, Bits: bits(1, 1)}, "order key names parent 1"},
		{"record names another parent", ShardCandidate{Key: 123, Ord: 0, Bits: bits(1, 1)}, "record 1"},
		{"inapplicable action", ShardCandidate{Key: 123, Ord: 0, Bits: bits(0, 3)}, "not applicable"},
	} {
		t.Run(c.name, func(t *testing.T) {
			hub := NewLocalShardHub(2)
			go hub.Participant(1).Exchange(0, []ShardCandidate{c.cand}, false)
			e := d.explorerOpts(shardDiffOpts{store: StoreInMemory}, 0)
			if err := e.Shard(0, 2, hub.Participant(0)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.FindDisagreement(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want an error naming %q, got %v", c.want, err)
			}
		})
	}
}

// TestShardedSearchLevelProfile pins the per-level progress stream:
// participant 0, the only one reporting, emits the same (visited, level)
// sequence as the single-process bounded engine — the level profile the multi-process CI
// smoke diffs too. Both sides run with a retained sink (StoreSpill) so the
// single-process engine builds its witness directly instead of re-searching,
// which would emit the profile twice.
func (d diffInstance) spillExplorer(dir string, prog func(v, l int)) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		Store:      StoreSpill,
		SpillDir:   dir,
		Workers:    1,
		OnProgress: prog,
	})
}

func TestShardedSearchLevelProfile(t *testing.T) {
	for _, d := range []diffInstance{diffInstances()[0], diffInstances()[1]} {
		t.Run(d.name, func(t *testing.T) {
			var wantProg, gotProg [][2]int
			seq := d.spillExplorer(t.TempDir(), func(v, l int) {
				wantProg = append(wantProg, [2]int{v, l})
			})
			_, wantFound, _, err := twoSearches(seq)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			dir := t.TempDir()
			outs, err := runShardedConsensusFailure(func() *Explorer {
				return d.spillExplorer(dir, func(v, l int) {
					mu.Lock()
					gotProg = append(gotProg, [2]int{v, l})
					mu.Unlock()
				})
			}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if outs[0].found != wantFound {
				t.Fatalf("found=%t, sequential says %t", outs[0].found, wantFound)
			}
			if !reflect.DeepEqual(gotProg, wantProg) {
				t.Fatalf("level profile diverged:\n got %v\nwant %v", gotProg, wantProg)
			}
		})
	}
}

// TestShardCodecRoundTrip pins the round message on representative
// payloads: a participant's post (one list, goal candidates with details),
// a gathered reply with the stop bit and an empty list, and an empty round.
func TestShardCodecRoundTrip(t *testing.T) {
	post := []ShardCandidate{
		{Key: 1, Ord: 2, Bits: 3},
		{Key: math.MaxUint64, Ord: 1 << 40, Bits: 1 << 56, Goal: true, Detail: "decisions [0 1] reached"},
	}
	for _, msg := range []struct {
		stop  bool
		lists [][]ShardCandidate
	}{
		{false, [][]ShardCandidate{post}},
		{true, [][]ShardCandidate{post, {}, {{Key: 0xdeadbeef}}}},
		{false, [][]ShardCandidate{}},
	} {
		enc, err := EncodeShardRound(msg.stop, msg.lists)
		if err != nil {
			t.Fatal(err)
		}
		stop, lists, err := DecodeShardRound(enc)
		if err != nil {
			t.Fatal(err)
		}
		if stop != msg.stop || !reflect.DeepEqual(lists, msg.lists) {
			t.Fatalf("round diverged: (%t, %+v) vs (%t, %+v)", stop, lists, msg.stop, msg.lists)
		}
	}
}

// TestShardCodecRejectsCorrupt spot-checks the decoder's defenses; the fuzz
// target explores far beyond these.
func TestShardCodecRejectsCorrupt(t *testing.T) {
	valid, err := EncodeShardRound(false, [][]ShardCandidate{{{Key: 1, Ord: 2, Bits: 3, Detail: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(i int, b byte) []byte {
		c := append([]byte{}, valid...)
		c[i] = b
		return c
	}
	bad := [][]byte{
		nil,
		{},
		[]byte("KSR1"),
		valid[:len(valid)-1],
		append(append([]byte{}, valid...), 0),
		corrupt(0, 'X'),                    // magic
		corrupt(4, 2),                      // stop flag
		corrupt(9+4+24, 2),                 // goal flag
		corrupt(5, 0xff),                   // list count beyond the body
		corrupt(9, 0xff),                   // candidate count beyond the body
		corrupt(9+4+25, 0xff),              // detail length beyond the body
		[]byte("KSC1\x00\x00\x00\x00\x00"), // a retired message
	}
	for i, data := range bad {
		if _, _, err := DecodeShardRound(data); err == nil {
			t.Fatalf("corrupt input %d decoded without error", i)
		}
	}
	if _, err := EncodeShardRound(false, [][]ShardCandidate{{{Detail: strings.Repeat("x", maxShardDetail)}}}); err == nil {
		t.Fatal("oversized detail encoded without error")
	}
}

// FuzzShardCodec asserts the round codec never panics or over-allocates on
// arbitrary input, and that the encoding is canonical: anything that
// decodes re-encodes to the same bytes.
func FuzzShardCodec(f *testing.F) {
	for _, msg := range []struct {
		stop  bool
		lists [][]ShardCandidate
	}{
		{false, [][]ShardCandidate{{{Key: 1, Ord: 2, Bits: 3, Goal: true, Detail: "d"}}}},
		{true, [][]ShardCandidate{{{Key: 9, Ord: 8, Bits: 7}}, nil}},
		{true, nil},
		{false, [][]ShardCandidate{nil, nil, {{Key: 1 << 63, Ord: 1 << 20}}}},
	} {
		if enc, err := EncodeShardRound(msg.stop, msg.lists); err == nil {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stop, lists, err := DecodeShardRound(data)
		if err != nil {
			return
		}
		enc, err := EncodeShardRound(stop, lists)
		if err != nil {
			t.Fatalf("re-encoding a decoded round: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("round trip changed the bytes:\n got %x\nwant %x", enc, data)
		}
	})
}

// TestLocalShardHubAllGather pins the barrier: a round is ready only once
// every participant has posted it, carries every list and the OR of the
// stop bits, and is retired when the next round fills; Try never creates
// state, and a second post of a round poisons the hub.
func TestLocalShardHubAllGather(t *testing.T) {
	hub := NewLocalShardHub(3)
	if _, _, ok, err := hub.Try(7); ok || err != nil || len(hub.rounds) != 0 {
		t.Fatalf("Try of an unposted round: ok=%t err=%v, %d rounds held", ok, err, len(hub.rounds))
	}
	lists := [][]ShardCandidate{{{Key: 1}}, nil, {{Key: 2}, {Key: 3}}}
	for round := 0; round < 2; round++ {
		for shard, stop := range []bool{false, round == 1, false} {
			if _, _, ok, _ := hub.Try(round); ok {
				t.Fatalf("round %d ready before participant %d posted", round, shard)
			}
			if err := hub.Post(round, shard, lists[shard], stop); err != nil {
				t.Fatal(err)
			}
		}
		got, stop, ok, err := hub.Try(round)
		if !ok || err != nil || stop != (round == 1) || !reflect.DeepEqual(got, lists) {
			t.Fatalf("round %d: ok=%t err=%v stop=%t lists %+v", round, ok, err, stop, got)
		}
	}
	if _, ok := hub.rounds[0]; ok || len(hub.rounds) != 1 {
		t.Fatalf("round 0 not retired after round 1 filled: %d rounds held", len(hub.rounds))
	}
	if err := hub.Post(1, 2, nil, false); err == nil {
		t.Fatal("second post of a round accepted")
	}
	if _, _, _, err := hub.Try(1); err == nil {
		t.Fatal("hub not poisoned by a second post")
	}
}

// TestLocalShardHubFailUnblocks asserts Fail poisons every blocked
// participant instead of deadlocking the barrier.
func TestLocalShardHubFailUnblocks(t *testing.T) {
	hub := NewLocalShardHub(3)
	done := make(chan error, 2)
	for shard := 0; shard < 2; shard++ {
		go func() {
			// Blocks: participant 2 never posts.
			_, _, err := hub.Participant(shard).Exchange(0, nil, false)
			done <- err
		}()
	}
	hub.Fail(errDeliberate)
	for i := 0; i < 2; i++ {
		if err := <-done; err == nil {
			t.Fatal("blocked participant returned nil after Fail")
		}
	}
	if _, _, _, err := hub.Try(0); err == nil {
		t.Fatal("Try returned nil after Fail")
	}
}

var errDeliberate = errors.New("deliberate failure")
