package service

import (
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kset/internal/explore"
)

// shardSearchSpec is the fast search instance the exchange tests shard: a
// MinWait system with a disagreement witness a few BFS levels deep, on the
// frontier store so per-level progress is emitted.
func shardSearchSpec() InstanceSpec {
	return InstanceSpec{Alg: "minwait", N: 3, F: 1, Goal: GoalSearch, Store: "frontier"}
}

// The HTTP exchange path end to end, in-process: a shardHub served over
// httptest, worker goroutines running the real ShardWorkerMain bootstrap
// (instance fetch, digest verification, shardClient polling) as
// participants 1..N-1, and participant 0 on the test goroutine. The verdict
// and the per-level progress must be bit-identical to KsetRunner.Run on the
// same spec. Run under -race in CI: it is the data-race gate for the
// exchange path.
func TestShardedHTTPSearchMatchesSingleProcess(t *testing.T) {
	spec := shardSearchSpec()
	r := KsetRunner{}
	var wantProg []ProgressUpdate
	want, err := r.Run(context.Background(), spec, func(u ProgressUpdate) { wantProg = append(wantProg, u) })
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(strconv.Itoa(shards), func(t *testing.T) {
			digest, err := r.Digest(spec)
			if err != nil {
				t.Fatal(err)
			}
			hub := explore.NewLocalShardHub(shards)
			srv := httptest.NewServer((&shardHub{
				hub:  hub,
				inst: shardInstance{Spec: spec.withDefaults(), Shards: shards, Digest: digest},
			}).handler())
			defer srv.Close()

			var wg sync.WaitGroup
			for i := 1; i < shards; i++ {
				wg.Add(1)
				go func(shard int) {
					defer wg.Done()
					if err := ShardWorkerMain(context.Background(), srv.URL, shard); err != nil {
						t.Errorf("shard %d: %v", shard, err)
					}
				}(i)
			}

			p, err := r.prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			var gotProg []ProgressUpdate
			onProgress, _ := progressFuncs(func(u ProgressUpdate) { gotProg = append(gotProg, u) })
			w, found, err := p.search.ShardParticipant(context.Background(), p.request(onProgress), 0, shards, hub.Participant(0))
			if err != nil {
				hub.Fail(err)
			}
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			got := searchVerdict(digest, w, found)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("verdict diverged:\n got: %+v\nwant: %+v", got, want)
			}
			if !reflect.DeepEqual(gotProg, wantProg) {
				t.Errorf("progress diverged:\n got: %+v\nwant: %+v", gotProg, wantProg)
			}
		})
	}
}

// A worker whose recomputed digest disagrees with the coordinator's refuses
// to participate and poisons the hub, so the other participants fail
// promptly instead of waiting on one that will never post.
func TestShardWorkerDigestMismatch(t *testing.T) {
	spec := shardSearchSpec()
	hub := explore.NewLocalShardHub(2)
	srv := httptest.NewServer((&shardHub{
		hub:  hub,
		inst: shardInstance{Spec: spec.withDefaults(), Shards: 2, Digest: "badc0ffeebadc0ff"},
	}).handler())
	defer srv.Close()

	err := ShardWorkerMain(context.Background(), srv.URL, 1)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("want digest-mismatch error, got %v", err)
	}
	// The refusal was reported: the hub is poisoned for every participant.
	if _, _, _, err := hub.Try(0); err == nil {
		t.Fatal("hub not poisoned after worker digest refusal")
	}
}

// A worker with an out-of-range shard index likewise refuses and reports;
// index 0 is out of a worker's range, since participant 0 is the
// coordinator's own.
func TestShardWorkerIndexOutOfRange(t *testing.T) {
	spec := shardSearchSpec()
	r := KsetRunner{}
	digest, err := r.Digest(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{7, 0} {
		hub := explore.NewLocalShardHub(2)
		srv := httptest.NewServer((&shardHub{
			hub:  hub,
			inst: shardInstance{Spec: spec.withDefaults(), Shards: 2, Digest: digest},
		}).handler())
		defer srv.Close()

		if err := ShardWorkerMain(context.Background(), srv.URL, shard); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Fatalf("shard %d: want out-of-range error, got %v", shard, err)
		}
		if _, _, _, err := hub.Try(0); err == nil {
			t.Fatalf("shard %d: hub not poisoned after worker index refusal", shard)
		}
	}
}

// RunShardedSearch rejects jobs the sharded engine cannot execute before
// spawning anything.
func TestRunShardedSearchValidation(t *testing.T) {
	workers := func(string, int) []string { return []string{"true"} }
	for name, cfg := range map[string]ShardConfig{
		"impossibility goal": {
			Spec:       InstanceSpec{Alg: "minwait", N: 3, F: 1, K: 1, Goal: GoalImpossibility},
			Shards:     2,
			WorkerArgs: workers,
		},
		"checkpoint opt-in": {
			Spec:       InstanceSpec{Alg: "minwait", N: 3, F: 1, Goal: GoalSearch, Checkpoint: true},
			Shards:     2,
			WorkerArgs: workers,
		},
		"zero shards": {
			Spec:       shardSearchSpec(),
			Shards:     0,
			WorkerArgs: workers,
		},
		"nil worker args": {
			Spec:   shardSearchSpec(),
			Shards: 2,
		},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := RunShardedSearch(context.Background(), cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// ShardedRunner delegates ineligible jobs — impossibility goal, checkpoint
// opt-in, Shards <= 1 — to the embedded KsetRunner, and its Digest is the
// KsetRunner digest unchanged (the shard count is a deployment knob, not
// part of the verdict's content address).
func TestShardedRunnerDelegates(t *testing.T) {
	// WorkerArgs that would fail any sharded attempt: delegation is proven
	// by the jobs succeeding anyway.
	sr := ShardedRunner{Shards: 2, WorkerArgs: nil}
	for name, spec := range map[string]InstanceSpec{
		"impossibility": {Alg: "minwait", N: 3, F: 1, K: 1, Goal: GoalImpossibility, MaxConfigs: 2000},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := KsetRunner{}.Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sr.Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("delegated verdict diverged:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
	t.Run("shards=1", func(t *testing.T) {
		spec := shardSearchSpec()
		one := ShardedRunner{Shards: 1, WorkerArgs: nil}
		want, err := KsetRunner{}.Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := one.Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Shards=1 verdict diverged:\n got: %+v\nwant: %+v", got, want)
		}
	})
	t.Run("digest unchanged", func(t *testing.T) {
		spec := shardSearchSpec()
		want, err := KsetRunner{}.Digest(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sr.Digest(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ShardedRunner digest %s != KsetRunner digest %s", got, want)
		}
	})
}

// buildExperiments builds cmd/experiments for the process tests and
// returns the WorkerArgs that re-exec it as a shard worker.
func buildExperiments(t *testing.T) func(coordURL string, shard int) []string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "kset/cmd/experiments")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building cmd/experiments: %v", err)
	}
	return func(coordURL string, shard int) []string {
		return []string{bin, "-shard-worker", coordURL, "-shard-index", strconv.Itoa(shard)}
	}
}

// The real thing: worker processes. RunShardedSearch re-execing the test
// binary's cmd/experiments build at several shard counts must produce
// byte-identical verdicts to the single-process runner. Skipped in -short
// (it builds a binary and forks workers).
func TestShardedProcessSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in -short mode")
	}
	workerArgs := buildExperiments(t)
	spec := shardSearchSpec()
	want, err := KsetRunner{}.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(strconv.Itoa(shards), func(t *testing.T) {
			got, err := RunShardedSearch(context.Background(), ShardConfig{
				Spec:       spec,
				Shards:     shards,
				WorkerArgs: workerArgs,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("multi-process verdict diverged:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// A cancelled context reaches the worker processes as participant 0's stop
// bit: the search comes back as a truncated verdict, and every worker
// finishes its participant and exits zero (RunShardedSearch fails the
// search when one does not).
func TestShardedProcessSearchCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in -short mode")
	}
	workerArgs := buildExperiments(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := RunShardedSearch(ctx, ShardConfig{
		Spec:       shardSearchSpec(),
		Shards:     3,
		WorkerArgs: workerArgs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled before the first round, every participant stops there.
	if got.Found || !got.Truncated || got.Visited != 0 {
		t.Fatalf("cancelled sharded search: want a truncated verdict with nothing visited, got %+v", got)
	}
}

// A worker whose process dies mid-protocol poisons the hub instead of
// leaving participant 0 parked in a round forever.
func TestShardedProcessWorkerCrashFailsSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in -short mode")
	}
	_, err := RunShardedSearch(context.Background(), ShardConfig{
		Spec:   shardSearchSpec(),
		Shards: 2,
		WorkerArgs: func(coordURL string, shard int) []string {
			// A "worker" that exits immediately with failure, never joining
			// the rounds.
			return []string{"false"}
		},
	})
	if err == nil {
		t.Fatal("search succeeded despite its worker dying")
	}
}
