package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"kset/internal/explore"
)

// Multi-process sharded exploration: the all-gather rounds of a sharded
// search served over localhost HTTP, plus the worker-side client and the
// process plumbing behind the `-shards N` flag of cmd/experiments and
// cmd/ksetd.
//
// A sharded search has N participants (see kset.Searcher.ShardParticipant).
// The coordinator process runs participant 0 on an explore.LocalShardHub and
// serves the hub's non-blocking Post/Try surface as HTTP endpoints on an
// ephemeral 127.0.0.1 listener, to N-1 worker processes running the others;
// handlers never park (the job server's write timeouts forbid it), so
// workers poll the 202-until-ready read. Worker processes bootstrap from
// GET /v1/shard/instance, which carries the full InstanceSpec plus the
// coordinator's content digest; a worker recomputes the digest from the
// spec it decoded and refuses to participate on mismatch, so a
// version-skewed binary fails fast instead of corrupting a bit-identical
// search. Round bodies use the binary round message of internal/explore
// (EncodeShardRound), not JSON: candidate lists are the hot path.
//
//	GET  /v1/shard/instance             spec + shards + digest
//	POST /v1/shard/round?round&shard    KSR1 body: stop bit + one list
//	GET  /v1/shard/round?round          200 KSR1: any stop + every list | 202
//	POST /v1/shard/error                {"error": ...} -> hub.Fail
//
// A poisoned hub answers 500 with the error everywhere, which each
// participant converts back into a local failure — exactly the
// LocalShardHub poisoning semantics, stretched over HTTP.

// shardInstance is the GET /v1/shard/instance reply: everything a worker
// process needs to reconstruct the coordinator's search bit for bit.
type shardInstance struct {
	Spec   InstanceSpec `json:"spec"`
	Shards int          `json:"shards"`
	Digest string       `json:"digest"`
}

// shardHub serves one sharded search's rounds.
type shardHub struct {
	hub  *explore.LocalShardHub
	inst shardInstance
}

// shardQuery parses the integer query parameters of a shard endpoint.
func shardQuery(r *http.Request, names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, name := range names {
		v, err := strconv.Atoi(r.URL.Query().Get(name))
		if err != nil {
			return nil, fmt.Errorf("bad %s: %v", name, err)
		}
		out[i] = v
	}
	return out, nil
}

func (h *shardHub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard/instance", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, h.inst)
	})
	mux.HandleFunc("POST /v1/shard/round", func(w http.ResponseWriter, r *http.Request) {
		q, err := shardQuery(r, "round", "shard")
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		stop, lists, err := explore.DecodeShardRound(body)
		if err == nil && len(lists) != 1 {
			err = fmt.Errorf("a post carries one list, got %d", len(lists))
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := h.hub.Post(q[0], q[1], lists[0], stop); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/shard/round", func(w http.ResponseWriter, r *http.Request) {
		q, err := shardQuery(r, "round")
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		lists, stop, ok, err := h.hub.Try(q[0])
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if !ok {
			w.WriteHeader(http.StatusAccepted)
			return
		}
		enc, err := explore.EncodeShardRound(stop, lists)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(enc)
	})
	mux.HandleFunc("POST /v1/shard/error", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Error == "" {
			writeError(w, http.StatusBadRequest, "missing error")
			return
		}
		h.hub.Fail(errors.New(body.Error))
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// shardPollInterval paces the workers' 202 polls. Rounds are milliseconds
// on realistic levels, so a short fixed interval stays responsive without
// hammering the coordinator.
const shardPollInterval = 2 * time.Millisecond

// shardClient implements explore.ShardExchange over the coordinator's HTTP
// hub: a post goes through once, the gathered round is polled until every
// participant has posted.
type shardClient struct {
	ctx    context.Context
	client *http.Client
	base   string
	shard  int
}

// do performs one request, distinguishing ready (200/204), still-filling
// (202), and failure.
func (c *shardClient) do(method, path string, body []byte) (data []byte, ready bool, err error) {
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return data, true, nil
	case http.StatusAccepted:
		return nil, false, nil
	default:
		var msg struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &msg) == nil && msg.Error != "" {
			return nil, false, fmt.Errorf("service: coordinator: %s", msg.Error)
		}
		return nil, false, fmt.Errorf("service: coordinator: unexpected status %d", resp.StatusCode)
	}
}

// Exchange implements explore.ShardExchange.
func (c *shardClient) Exchange(round int, cands []explore.ShardCandidate, stop bool) ([][]explore.ShardCandidate, bool, error) {
	body, err := explore.EncodeShardRound(stop, [][]explore.ShardCandidate{cands})
	if err != nil {
		return nil, false, err
	}
	if _, _, err := c.do(http.MethodPost, fmt.Sprintf("/v1/shard/round?round=%d&shard=%d", round, c.shard), body); err != nil {
		return nil, false, err
	}
	path := fmt.Sprintf("/v1/shard/round?round=%d", round)
	for {
		data, ready, err := c.do(http.MethodGet, path, nil)
		if err != nil {
			return nil, false, err
		}
		if ready {
			stop, lists, err := explore.DecodeShardRound(data)
			return lists, stop, err
		}
		select {
		case <-c.ctx.Done():
			return nil, false, c.ctx.Err()
		case <-time.After(shardPollInterval):
		}
	}
}

// ShardConfig parameterizes RunShardedSearch.
type ShardConfig struct {
	// Spec is the search job; must have Goal == GoalSearch and no
	// checkpoint opt-in (distributed pause/resume is future work).
	Spec InstanceSpec
	// Shards is the participant count (>= 1): this process plus Shards-1
	// worker processes.
	Shards int
	// WorkerArgs builds the command line of the worker process running
	// participant shard (1 <= shard < Shards) given the coordinator's base
	// URL; typically a re-exec of the current binary with hidden worker
	// flags. Workers inherit the coordinator's stderr.
	WorkerArgs func(coordURL string, shard int) []string
	// OnProgress, when non-nil, receives participant 0's per-level progress
	// updates.
	OnProgress func(ProgressUpdate)
}

// RunShardedSearch runs one GoalSearch job as a multi-process sharded
// exploration: participant 0 in this process, serving the shard hub on an
// ephemeral localhost listener, plus cfg.Shards-1 worker processes spawned
// from cfg.WorkerArgs. The verdict is bit-identical to KsetRunner.Run on
// the same spec at any shard count. A worker that exits nonzero fails the
// search.
func RunShardedSearch(ctx context.Context, cfg ShardConfig) (*Verdict, error) {
	spec := cfg.Spec.withDefaults()
	if spec.Goal != GoalSearch {
		return nil, fmt.Errorf("service: sharded execution requires goal %q (got %q)", GoalSearch, spec.Goal)
	}
	if spec.Checkpoint {
		return nil, fmt.Errorf("service: sharded execution does not support checkpointing")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("service: shard count %d out of range", cfg.Shards)
	}
	if cfg.WorkerArgs == nil {
		return nil, fmt.Errorf("service: ShardConfig.WorkerArgs is required")
	}
	r := KsetRunner{}
	p, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}
	digest, err := r.Digest(spec)
	if err != nil {
		return nil, err
	}
	hub := explore.NewLocalShardHub(cfg.Shards)
	h := &shardHub{hub: hub, inst: shardInstance{Spec: spec, Shards: cfg.Shards, Digest: digest}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service: shard listener: %w", err)
	}
	srv := &http.Server{Handler: h.handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	coordURL := "http://" + ln.Addr().String()

	// procCtx is a cleanup backstop, not the cancellation path: a user
	// cancel reaches every participant as participant 0's stop bit in the
	// next round (truncated verdict everywhere, workers exit zero); the
	// hard kill only fires once RunShardedSearch itself returns.
	procCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	workerErrs := make(chan error, cfg.Shards)
	for i := 1; i < cfg.Shards; i++ {
		args := cfg.WorkerArgs(coordURL, i)
		if len(args) == 0 {
			hub.Fail(fmt.Errorf("service: empty worker command for shard %d", i))
			break
		}
		cmd := exec.CommandContext(procCtx, args[0], args[1:]...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			hub.Fail(fmt.Errorf("service: starting shard %d worker: %w", i, err))
			break
		}
		wg.Add(1)
		go func(shard int, cmd *exec.Cmd) {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				// A worker that died mid-search would otherwise leave the
				// other participants parked in a round; poisoning the hub
				// turns the crash into a prompt error everywhere.
				err = fmt.Errorf("service: shard %d worker: %w", shard, err)
				hub.Fail(err)
				workerErrs <- err
			}
		}(i, cmd)
	}

	onProgress, _ := progressFuncs(cfg.OnProgress)
	w, found, err := p.search.ShardParticipant(ctx, p.request(onProgress), 0, cfg.Shards, hub.Participant(0))
	if err != nil {
		hub.Fail(err)
	}
	wg.Wait()
	close(workerErrs)
	if err == nil {
		err = <-workerErrs
	}
	if err != nil {
		return nil, fmt.Errorf("service: sharded search: %w", err)
	}
	return searchVerdict(digest, w, found), nil
}

// ShardWorkerMain is the entry point of a worker process: it bootstraps the
// instance from the coordinator, verifies the content digest, and runs its
// participant of the search to the end. Errors are reported back to the
// coordinator (best effort) before returning.
func ShardWorkerMain(ctx context.Context, coordURL string, shard int) error {
	client := &http.Client{}
	c := &shardClient{ctx: ctx, client: client, base: coordURL, shard: shard}
	var inst shardInstance
	// Brief retry: the coordinator always listens before spawning workers,
	// but a loaded machine can still glitch the first connect.
	var data []byte
	var err error
	for attempt := 0; ; attempt++ {
		data, _, err = c.do(http.MethodGet, "/v1/shard/instance", nil)
		if err == nil || attempt >= 20 || ctx.Err() != nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("service: fetching shard instance: %w", err)
	}
	if err := json.Unmarshal(data, &inst); err != nil {
		return fmt.Errorf("service: malformed shard instance: %w", err)
	}
	if shard < 1 || shard >= inst.Shards {
		// Participant 0 is the coordinator's own.
		return c.reportError(fmt.Errorf("service: worker shard index %d out of range [1,%d)", shard, inst.Shards))
	}
	r := KsetRunner{}
	digest, err := r.Digest(inst.Spec)
	if err != nil {
		return c.reportError(fmt.Errorf("service: shard %d: %w", shard, err))
	}
	if digest != inst.Digest {
		return c.reportError(fmt.Errorf(
			"service: shard %d digest mismatch: coordinator %s, worker %s (version skew?)", shard, inst.Digest, digest))
	}
	p, err := r.prepare(inst.Spec)
	if err != nil {
		return c.reportError(fmt.Errorf("service: shard %d: %w", shard, err))
	}
	if _, _, err := p.search.ShardParticipant(ctx, p.request(nil), shard, inst.Shards, c); err != nil {
		return c.reportError(fmt.Errorf("service: shard %d: %w", shard, err))
	}
	return nil
}

// reportError forwards a worker-side failure to the coordinator's hub so
// every participant unblocks, then returns it for the worker's own exit.
func (c *shardClient) reportError(err error) error {
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	_, _, _ = c.do(http.MethodPost, "/v1/shard/error", body)
	return err
}

// ShardedRunner is a Runner that executes eligible GoalSearch jobs as
// multi-process sharded explorations and delegates everything else
// (impossibility jobs, checkpoint-opted jobs, Shards <= 1) to the embedded
// KsetRunner. Digest is inherited unchanged: the shard count is a
// deployment knob, not part of the verdict's content address, because
// verdicts are bit-identical at every shard count.
type ShardedRunner struct {
	KsetRunner
	// Shards is the participant count: this process plus Shards-1 worker
	// processes; <= 1 disables sharding.
	Shards int
	// WorkerArgs builds worker command lines (see ShardConfig.WorkerArgs).
	WorkerArgs func(coordURL string, shard int) []string
}

// Run implements Runner.
func (r ShardedRunner) Run(ctx context.Context, spec InstanceSpec, progress func(ProgressUpdate)) (*Verdict, error) {
	s := spec.withDefaults()
	if r.Shards > 1 && s.Goal == GoalSearch && !s.Checkpoint {
		return RunShardedSearch(ctx, ShardConfig{
			Spec:       spec,
			Shards:     r.Shards,
			WorkerArgs: r.WorkerArgs,
			OnProgress: progress,
		})
	}
	return r.KsetRunner.Run(ctx, spec, progress)
}
