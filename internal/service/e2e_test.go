package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kset"
)

// e2eSpec is the end-to-end workhorse: the Theorem 2 setting the CLI and the
// E14 engine rows use, small enough to complete in well under a second and
// refuted (3 distinct decisions > k).
func e2eSpec() InstanceSpec {
	return InstanceSpec{Alg: "minwait", N: 4, F: 3, K: 2, MaxConfigs: 60000}
}

// TestE2ECacheHitBitIdentical is the acceptance gate of the verdict cache:
// two submissions of the same instance against a live server return
// bit-identical verdicts, the second answered from the disk cache with the
// hit counter incremented — and a fresh server over the same cache directory
// answers from the cache without running anything at all.
func TestE2ECacheHitBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Runner: KsetRunner{}, Cache: cache})
	body, err := json.Marshal(e2eSpec())
	if err != nil {
		t.Fatal(err)
	}

	code, sub := postJob(t, ts, string(body))
	if code != 202 || sub.Cached {
		t.Fatalf("first submit: HTTP %d %+v", code, sub)
	}
	st := waitState(t, ts, sub.JobID, StateDone)
	if st.Verdict == nil || !st.Verdict.Refuted {
		t.Fatalf("e2e verdict: %+v", st.Verdict)
	}
	first, err := json.Marshal(st.Verdict)
	if err != nil {
		t.Fatal(err)
	}

	code, sub2 := postJob(t, ts, string(body))
	if code != 200 || !sub2.Cached || sub2.Verdict == nil {
		t.Fatalf("second submit: HTTP %d %+v", code, sub2)
	}
	second, err := json.Marshal(sub2.Verdict)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("verdicts differ:\n  run:    %s\n  cached: %s", first, second)
	}
	if cs := cacheStats(t, ts); cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats: %+v", cs)
	}

	// The disk cache outlives the server: a fresh server over the same
	// directory answers the same submission as a pure hit.
	cache2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Runner: KsetRunner{}, Cache: cache2})
	code, sub3 := postJob(t, ts2, string(body))
	if code != 200 || !sub3.Cached {
		t.Fatalf("fresh-server submit: HTTP %d %+v", code, sub3)
	}
	third, err := json.Marshal(sub3.Verdict)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(third) {
		t.Fatalf("persisted verdict differs:\n  run:  %s\n  disk: %s", first, third)
	}
}

// submitAndWait submits a spec and returns its verdict, whether freshly
// computed or answered from the cache. Knob combinations that collapse to
// the same effective search share a digest — POR is forced off under
// non-crash fault models, for instance — so a matrix sweep legitimately sees
// cache hits on later cells.
func submitAndWait(t *testing.T, ts *httptest.Server, spec InstanceSpec) *Verdict {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, sub := postJob(t, ts, string(body))
	switch {
	case code == 200 && sub.Cached:
		return sub.Verdict
	case code == 202:
		return waitState(t, ts, sub.JobID, StateDone).Verdict
	}
	t.Fatalf("submit: HTTP %d %+v", code, sub)
	return nil
}

// TestDifferentialServerVsLibrary cross-checks the service against direct
// kset.Searcher calls across the reduction and fault knob matrix: for every
// combination the HTTP verdict must agree field by field with the library's
// report, for both goals.
func TestDifferentialServerVsLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: KsetRunner{}, Cache: NewMemoryCache(), Workers: 4})
	for _, symmetry := range []bool{false, true} {
		for _, por := range []bool{false, true} {
			for _, faults := range []string{"", "send-omission:1"} {
				name := fmt.Sprintf("sym=%t/por=%t/faults=%q", symmetry, por, faults)
				search, err := kset.NewSearcher(kset.Options{Symmetry: symmetry, POR: por, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}

				// Impossibility goal.
				spec := e2eSpec()
				spec.Symmetry, spec.POR, spec.Faults = symmetry, por, faults
				v := submitAndWait(t, ts, spec)

				part, err := kset.Theorem2Partition(spec.N, spec.F, spec.K)
				if err != nil {
					t.Fatal(err)
				}
				alg, err := kset.NewAlgorithm(spec.Alg, spec.F)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := search.CheckImpossibility(context.Background(), kset.ImpossibilityInstance{
					Alg:             alg,
					Inputs:          kset.DistinctInputs(spec.N),
					Spec:            part,
					DBarCrashBudget: 1,
					MaxConfigs:      spec.MaxConfigs,
					SearchStrategy:  "dfs",
				})
				if err != nil {
					t.Fatal(err)
				}
				if v.Refuted != rep.Refuted || v.Violation != rep.Violation || v.Summary != rep.Summary() {
					t.Errorf("%s: verdict disagrees with library:\n  server: refuted=%t %q %q\n  library: refuted=%t %q %q",
						name, v.Refuted, v.Violation, v.Summary, rep.Refuted, rep.Violation, rep.Summary())
				}
				if v.CondA != rep.CondA.String() || v.CondB != rep.CondB.String() ||
					v.CondC != rep.CondC.String() || v.CondD != rep.CondD.String() {
					t.Errorf("%s: condition statuses disagree: server (%s %s %s %s), library (%s %s %s %s)",
						name, v.CondA, v.CondB, v.CondC, v.CondD, rep.CondA, rep.CondB, rep.CondC, rep.CondD)
				}
				if v.Visited != rep.CondCStats.Visited || v.Truncated != rep.CondCStats.Truncated {
					t.Errorf("%s: stats disagree: server visited=%d truncated=%t, library visited=%d truncated=%t",
						name, v.Visited, v.Truncated, rep.CondCStats.Visited, rep.CondCStats.Truncated)
				}

				// Search goal over the full system.
				sspec := spec
				sspec.Goal = GoalSearch
				sspec.K = 0
				sspec.MaxConfigs = 20000
				sv := submitAndWait(t, ts, sspec)

				live := make([]kset.ProcessID, sspec.N)
				for i := range live {
					live[i] = kset.ProcessID(i + 1)
				}
				w, found, err := search.FindConsensusFailure(context.Background(), kset.SearchRequest{
					Alg:         alg,
					Inputs:      kset.DistinctInputs(sspec.N),
					Live:        live,
					CrashBudget: 1,
					MaxConfigs:  sspec.MaxConfigs,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sv.Found != found {
					t.Errorf("%s: search found=%t, library found=%t", name, sv.Found, found)
				}
				if w != nil && (sv.Visited != w.Stats.Visited || sv.Truncated != w.Stats.Truncated) {
					t.Errorf("%s: search stats disagree: server visited=%d truncated=%t, library visited=%d truncated=%t",
						name, sv.Visited, sv.Truncated, w.Stats.Visited, w.Stats.Truncated)
				}
				if found && (sv.WitnessKind != w.Kind || sv.WitnessDetail != w.Detail) {
					t.Errorf("%s: search witness disagrees: server (%s %q), library (%s %q)",
						name, sv.WitnessKind, sv.WitnessDetail, w.Kind, w.Detail)
				}
			}
		}
	}
}

// TestIgnoredPackedSpecField pins the ignored "packed" spec field: a spec
// carrying "packed":"on" or "off" is accepted over HTTP, and it has the
// digest and the verdict of the same spec without the field, for both
// goals.
func TestIgnoredPackedSpecField(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: KsetRunner{}, Cache: NewMemoryCache()})
	search := e2eSpec()
	search.Goal, search.K, search.MaxConfigs = GoalSearch, 0, 20000
	for _, bare := range []InstanceSpec{e2eSpec(), search} {
		want := submitAndWait(t, ts, bare)
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		bareJSON, err := json.Marshal(bare)
		if err != nil {
			t.Fatal(err)
		}
		for _, packed := range []string{"on", "off"} {
			spec := bare
			spec.Packed = packed
			if d, err := (KsetRunner{}).Digest(spec); err != nil || d != want.Digest {
				t.Fatalf("%s packed=%s: digest %s (err %v), want %s", bare.Goal, packed, d, err, want.Digest)
			}
			v, err := KsetRunner{}.Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := json.Marshal(v); err != nil || !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s packed=%s: verdict %s (err %v), want %s", bare.Goal, packed, got, err, wantJSON)
			}
			body := strings.TrimSuffix(string(bareJSON), "}") + `,"packed":"` + packed + `"}`
			code, sub := postJob(t, ts, body)
			if code != 200 || !sub.Cached || sub.Verdict == nil || sub.Verdict.Digest != want.Digest {
				t.Fatalf("%s packed=%s: HTTP %d %+v, want a cache hit on %s", bare.Goal, packed, code, sub, want.Digest)
			}
		}
	}
}

// TestConcurrentJobs drives several real searches through the pool at once
// (the -race acceptance workload) and then replays every one of them as a
// cache hit with an identical verdict.
func TestConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: KsetRunner{}, Cache: NewMemoryCache(), Workers: 3})
	algs := []string{"minwait", "decideown", "firstheard", "quorummin"}

	verdicts := make([]*Verdict, len(algs))
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := e2eSpec()
			spec.Alg = alg
			body, err := json.Marshal(spec)
			if err != nil {
				t.Error(err)
				return
			}
			// Raw HTTP without the postJob/waitState helpers: t.Fatal must
			// not be called from a spawned goroutine.
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("%s: %v", alg, err)
				return
			}
			var sub SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 202 {
				t.Errorf("%s: submit HTTP %d (%v)", alg, resp.StatusCode, err)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID)
				if err != nil {
					t.Errorf("%s: %v", alg, err)
					return
				}
				var st JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: %v", alg, err)
					return
				}
				switch st.State {
				case StateDone:
					verdicts[i] = st.Verdict
					return
				case StateFailed:
					t.Errorf("%s: job failed: %s", alg, st.Error)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Errorf("%s: job never completed", alg)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, alg := range algs {
		spec := e2eSpec()
		spec.Alg = alg
		body, _ := json.Marshal(spec)
		code, sub := postJob(t, ts, string(body))
		if code != 200 || !sub.Cached {
			t.Fatalf("%s: replay HTTP %d %+v", alg, code, sub)
		}
		if *sub.Verdict != *verdicts[i] {
			t.Fatalf("%s: replay verdict differs: %+v vs %+v", alg, sub.Verdict, verdicts[i])
		}
	}
	if cs := cacheStats(t, ts); cs.Hits != int64(len(algs)) || cs.Entries != len(algs) {
		t.Fatalf("cache stats after replay: %+v", cs)
	}
}
