package main

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
	"path/filepath"
	"runtime"
	"time"

	"kset/internal/service"
)

// The serve workload is ksetd under one user, in process: service.New with
// the production runner, a memory cache and one job worker, behind a
// loopback listener. Each op is a session: submit a never-seen spec, poll its
// status until done, then resubmit it three times and check each cached
// verdict is byte-identical to the cold one. HTTP/JSON, digesting, the queue,
// the runner and cache gets and puts are on every session's path.
//
// The measured server keeps nothing on disk. On the machine the benchmark was
// tuned on, file creation on the checkout's filesystem took 0.014-0.58 ms and
// fsync 0.08-0.25 ms from one minute to the next, and a session on an fsync'd
// journal and a disk cache moved with them (op_p50_ms 2.7-4.0 ms against
// 1.60-1.67 ms from memory, runs interleaved). The durable server (journal,
// disk cache, restart recovery) is timed by the traced probe instead.
const (
	// setupJobs is how many jobs each set-up runs before the first timed
	// op: warm-up sessions on the measured server, recovered journal
	// entries on the probe's durable one.
	setupJobs = 180
	// hitsPerSession resubmissions follow each cold job.
	hitsPerSession = 3
	// recoveryPoll is how often awaitRecovery checks a recovering server.
	recoveryPoll = time.Millisecond
	// probeSessions is the size of the traced probe.
	probeSessions = 96
)

// MaxConfigs values give each use of a spec its own digest: cold specs of
// round r use sessionMaxConfigs+r, so every session's spec is new to the
// server although the set of instances repeats round by round. All of them
// are far above any search the specs make, so the verdict is unchanged.
const (
	setupMaxConfigs   = 70_000
	sessionMaxConfigs = 80_000
	probeMaxConfigs   = 90_000
)

type serve struct {
	// durable servers keep an fsync'd journal and a disk cache in dir.
	durable bool
	dir     string
	runner  service.KsetRunner
	srv     *service.Server
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string
	journal string
	specs   []service.InstanceSpec
	order   *rounds
}

func setupServe(seed uint64) (workload, error) { return newServe(seed, nil, false) }

// newServe generates the specs and starts a server. The set-up's jobs are a
// fixed, evenly spread sample of the specs in seed-shuffled order, so every
// seed sets up the same work: the measured server runs them as warm-up
// sessions; a durable server finds them accepted but unstarted in its
// journal, recovers them and runs them before it reports ready.
func newServe(seed uint64, tr *tracer, durable bool) (*serve, error) {
	rng := newRand(seed)
	s := &serve{durable: durable}
	var err error
	if s.specs, err = serveSpecs(s.runner); err != nil {
		return nil, err
	}
	picks := spread(len(s.specs), setupJobs)
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	if err := s.prepare(picks, tr); err != nil {
		s.close()
		return nil, err
	}
	s.order = newRounds(rng, len(s.specs))
	return s, nil
}

func (s *serve) prepare(picks []int, tr *tracer) error {
	if !s.durable {
		if err := s.start(); err != nil {
			return err
		}
		for _, k := range picks {
			sp := s.specs[k]
			sp.MaxConfigs = setupMaxConfigs
			if _, err := s.session(sp, nil, 0, -1); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	var err error
	if s.dir, err = scratchDir("serve-"); err != nil {
		return err
	}
	s.journal = filepath.Join(s.dir, "journal.jsonl")
	if err := s.writeJournal(picks); err != nil {
		return err
	}
	id := tr.begin("service.recover", 0, -1)
	if err := s.start(); err != nil {
		return err
	}
	if err := s.awaitRecovery(len(picks)); err != nil {
		return err
	}
	tr.end(id, len(picks))
	return nil
}

// writeJournal leaves the picked specs accepted but unstarted, as a server
// killed right after accepting them would.
func (s *serve) writeJournal(picks []int) error {
	j, err := service.OpenJournal(s.journal)
	if err != nil {
		return err
	}
	for i, k := range picks {
		sp := s.specs[k]
		sp.MaxConfigs = setupMaxConfigs
		d, err := s.runner.Digest(sp)
		if err == nil {
			err = j.Append(service.JournalRecord{Job: fmt.Sprintf("j%d", i+1), Digest: d, Event: service.EventSubmitted, Spec: &sp})
		}
		if err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

func (s *serve) start() error {
	var cache service.Cache = service.NewMemoryCache()
	var j *service.Journal
	if s.durable {
		var err error
		if j, err = service.OpenJournal(s.journal); err != nil {
			return err
		}
		if cache, err = service.NewDiskCache(filepath.Join(s.dir, "cache")); err != nil {
			j.Close()
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if j != nil {
			j.Close()
		}
		return err
	}
	s.srv = service.New(service.Config{Runner: s.runner, Cache: cache, Workers: 1, Journal: j})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return nil
}

type submitReply struct {
	Cached  bool            `json:"cached"`
	Deduped bool            `json:"deduped"`
	JobID   string          `json:"job_id"`
	Verdict json.RawMessage `json:"verdict"`
}

type statusReply struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Error   string          `json:"error"`
	Spec    json.RawMessage `json:"spec"`
	Verdict json.RawMessage `json:"verdict"`
}

// awaitRecovery waits until the server is ready and all n recovered jobs are
// done, then checks their verdicts. While it waits it polls the cheap
// endpoints (readiness, cache size), so the client does not compete with the
// job worker by fetching the whole job list every few milliseconds.
func (s *serve) awaitRecovery(n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for ready := false; ; time.Sleep(recoveryPoll) {
		if time.Now().After(deadline) {
			return errors.New("recovery did not finish within 60 s")
		}
		if !ready {
			code, err := s.call(http.MethodGet, "/readyz", nil, nil)
			if err != nil {
				return err
			}
			ready = code == http.StatusOK
			continue
		}
		var stats service.CacheStats
		if code, err := s.call(http.MethodGet, "/v1/cache/stats", nil, &stats); err != nil || code != http.StatusOK {
			return fmt.Errorf("cache stats: %d %v", code, err)
		}
		if stats.Entries < n {
			continue
		}
		var list struct {
			Jobs []statusReply `json:"jobs"`
		}
		if code, err := s.call(http.MethodGet, "/v1/jobs", nil, &list); err != nil || code != http.StatusOK {
			return fmt.Errorf("list jobs: %d %v", code, err)
		}
		if len(list.Jobs) != n {
			return fmt.Errorf("recovered %d jobs, want %d", len(list.Jobs), n)
		}
		done := 0
		for _, j := range list.Jobs {
			switch j.State {
			case service.StateDone:
				var sp service.InstanceSpec
				if err := json.Unmarshal(j.Spec, &sp); err != nil {
					return err
				}
				if _, err := checkVerdict(sp, j.Verdict); err != nil {
					return fmt.Errorf("recovered job %s: %w", j.ID, err)
				}
				done++
			case service.StateQueued, service.StateRunning:
			default:
				return fmt.Errorf("recovered job %s %s: %s", j.ID, j.State, j.Error)
			}
		}
		if done == n {
			return nil
		}
	}
}

func (s *serve) op(i int, tr *tracer, root int) (opOut, error) {
	sp := s.specs[s.order.next()]
	sp.MaxConfigs = sessionMaxConfigs + s.order.round
	return s.session(sp, tr, root, i)
}

// session submits a never-seen spec, polls it to completion, checks the
// verdict, and resubmits it hitsPerSession times expecting the identical
// verdict from the cache.
func (s *serve) session(sp service.InstanceSpec, tr *tracer, root, op int) (opOut, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return opOut{}, err
	}
	var sub submitReply
	id := tr.begin("http.submit", root, op)
	code, err := s.call(http.MethodPost, "/v1/jobs", body, &sub)
	tr.end(id, 0)
	if err != nil {
		return opOut{}, err
	}
	if code != http.StatusAccepted || sub.Cached || sub.Deduped || sub.JobID == "" {
		return opOut{}, fmt.Errorf("cold submit of %s: status %d cached=%v deduped=%v", body, code, sub.Cached, sub.Deduped)
	}

	// Between polls the client yields the processor instead of sleeping. At
	// one P the job worker then runs until the job is done (or the runtime
	// preempts it, every 10 ms) and the next poll follows at once, so the
	// session measures the server, not a timer. A client that slept 0.5 ms
	// between polls left the CPU idle, and each wake-up added about 0.3 ms
	// beyond the interval on the machine the benchmark was tuned on
	// (op_p50_ms 1.73 ms against 0.94 ms yielding).
	wait := tr.begin("service.wait", root, op)
	var st statusReply
	polls := 0
	for {
		runtime.Gosched()
		id := tr.begin("http.poll", wait, op)
		code, err := s.call(http.MethodGet, "/v1/jobs/"+sub.JobID, nil, &st)
		tr.end(id, 0)
		polls++
		if err != nil {
			return opOut{}, err
		}
		if code != http.StatusOK {
			return opOut{}, fmt.Errorf("poll %s: status %d", sub.JobID, code)
		}
		if st.State == service.StateDone {
			break
		}
		if st.State != service.StateQueued && st.State != service.StateRunning {
			return opOut{}, fmt.Errorf("job %s of %s: %s %s", sub.JobID, body, st.State, st.Error)
		}
	}
	tr.end(wait, polls)
	visited, err := checkVerdict(sp, st.Verdict)
	if err != nil {
		return opOut{}, fmt.Errorf("%s: %w", body, err)
	}

	out := opOut{states: visited}
	for h := 0; h < hitsPerSession; h++ {
		t0 := time.Now()
		id := tr.begin("http.hit", root, op)
		var hit submitReply
		code, err := s.call(http.MethodPost, "/v1/jobs", body, &hit)
		tr.end(id, 0)
		lat := time.Since(t0)
		if err != nil {
			return opOut{}, err
		}
		if code != http.StatusOK || !hit.Cached || !bytes.Equal(hit.Verdict, st.Verdict) {
			return opOut{}, fmt.Errorf("resubmit of %s: status %d cached=%v, verdict %s, cold verdict %s", body, code, hit.Cached, hit.Verdict, st.Verdict)
		}
		out.hits = append(out.hits, lat)
	}
	return out, nil
}

// checkVerdict accepts a complete refutation (impossibility goal) or a found
// witness (search goal) from an untruncated search and returns its visited
// count.
func checkVerdict(sp service.InstanceSpec, raw json.RawMessage) (int, error) {
	var v service.Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("verdict %s: %w", raw, err)
	}
	if v.Truncated {
		return 0, fmt.Errorf("truncated verdict: %s", v.Summary)
	}
	if sp.Goal == service.GoalSearch {
		if !v.Found || (v.WitnessKind != "disagreement" && v.WitnessKind != "blocking") {
			return 0, fmt.Errorf("search found no witness: %s", v.Summary)
		}
		return v.Visited, nil
	}
	const ok = "satisfied"
	if !v.Refuted || v.CondA != ok || v.CondB != ok || v.CondC != ok || v.CondD != ok {
		return 0, fmt.Errorf("not refuted: %s", v.Summary)
	}
	switch {
	case v.Violation == "k-agreement" && v.DistinctDecisions > sp.K:
	case v.Violation == "termination":
	default:
		return 0, fmt.Errorf("violation %q with %d decisions for k=%d", v.Violation, v.DistinctDecisions, sp.K)
	}
	return v.Visited, nil
}

// call makes one request on the client's single keep-alive connection and
// decodes a JSON reply into out when given.
func (s *serve) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (s *serve) roundLen() int { return len(s.specs) }

func (s *serve) close() error {
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
		s.srv.Close()
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// probeServe traces probeSessions sessions on a fresh durable server (whose
// set-up gives service.recover_ms), re-runs each cold spec's digest and search
// directly to attribute them, counts journal records per cold job, checks the
// server's cache counters against the trace, and times journal appends and
// cache puts and gets on scratch files.
func probeServe(seed uint64, tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	s, err := newServe(seed, tr, true)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	m["service.recover_ms"] = ms(tr.named("service.recover")[0].dur())
	before, err := lineCount(s.journal)
	if err != nil {
		return 0, 0, err
	}
	var verdicts []*service.Verdict
	for i, k := range spread(len(s.specs), probeSessions) {
		sp := s.specs[k]
		sp.MaxConfigs = probeMaxConfigs
		root := tr.begin("op", 0, i)
		out, err := s.session(sp, tr, root, i)
		tr.end(root, out.states)
		attempted++
		if err == nil {
			var v *service.Verdict
			if v, err = s.attribute(sp, tr, i); err == nil {
				verdicts = append(verdicts, v)
			}
		}
		if err != nil {
			failed++
			fmt.Printf("  failed serve probe op: %v\n", err)
		}
	}
	after, err := lineCount(s.journal)
	if err != nil {
		return attempted, failed, err
	}
	m["service.journal_records_per_job"] = float64(after-before) / float64(len(tr.named("http.submit")))

	var stats service.CacheStats
	if code, err := s.call(http.MethodGet, "/v1/cache/stats", nil, &stats); err != nil || code != http.StatusOK {
		return attempted, failed, fmt.Errorf("cache stats: %d %v", code, err)
	}
	hits, misses := len(tr.named("http.hit")), len(tr.named("http.submit"))
	attempted++
	if stats.Hits != int64(hits) || stats.Misses != int64(misses) {
		failed++
		fmt.Printf("  cache stats hits=%d misses=%d, trace hits=%d misses=%d\n", stats.Hits, stats.Misses, hits, misses)
	}
	m["service.cache_hits"] = float64(stats.Hits)
	m["service.cache_misses"] = float64(stats.Misses)

	for name, dst := range map[string]string{"service.digest": "service.digest_ms", "service.run": "service.run_ms", "service.wait": "service.wait_ms"} {
		var xs []float64
		for _, sp := range tr.named(name) {
			xs = append(xs, ms(sp.dur()))
		}
		m[dst] = median(xs)
	}
	polls := 0
	for _, sp := range tr.named("service.wait") {
		polls += sp.N
	}
	m["service.polls_per_job"] = float64(polls) / float64(len(tr.named("service.wait")))

	if err := storeProbe(tr, verdicts); err != nil {
		return attempted + 1, failed + 1, err
	}
	for _, name := range []string{"service.journal_append", "service.cache_put", "service.cache_get"} {
		var xs []float64
		for _, sp := range tr.named(name) {
			xs = append(xs, ms(sp.dur()))
		}
		m[name+"_ms"] = median(xs)
	}
	return attempted + 1, failed, nil
}

// storeProbe times Journal.Append (each fsync'd) and DiskCache.Put and Get
// on scratch files, with the done records and verdicts of the probe's jobs.
func storeProbe(tr *tracer, verdicts []*service.Verdict) error {
	dir, err := scratchDir("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := service.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	for i, v := range verdicts {
		id := tr.begin("service.journal_append", 0, i)
		err := j.Append(service.JournalRecord{Job: fmt.Sprintf("j%d", i+1), Digest: v.Digest, Event: service.EventDone, Verdict: v})
		tr.end(id, 0)
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	c, err := service.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	for i, v := range verdicts {
		id := tr.begin("service.cache_put", 0, i)
		err := c.Put(v.Digest, v)
		tr.end(id, 0)
		if err != nil {
			return err
		}
	}
	for i, v := range verdicts {
		id := tr.begin("service.cache_get", 0, i)
		got, ok, err := c.Get(v.Digest)
		tr.end(id, 0)
		if err != nil || !ok || got.Digest != v.Digest {
			return fmt.Errorf("cache get %s: ok=%v %v", v.Digest, ok, err)
		}
	}
	return nil
}

// attribute re-runs a checked session's digest and search directly on the
// runner, outside the op, so their times are attributed to the runner
// rather than to the HTTP and queueing layers around them.
func (s *serve) attribute(sp service.InstanceSpec, tr *tracer, op int) (*service.Verdict, error) {
	aroot := tr.begin("attrib", 0, op)
	defer tr.end(aroot, 0)
	id := tr.begin("service.digest", aroot, op)
	_, err := s.runner.Digest(sp)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = tr.begin("service.run", aroot, op)
	v, err := s.runner.Run(context.Background(), sp, nil)
	if err != nil {
		tr.end(id, 0)
		return nil, err
	}
	tr.end(id, v.Visited)
	return v, nil
}

func lineCount(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(data, []byte("\n")), nil
}
