// Command perfbench is the repository's end-to-end benchmark. It generates a
// closed-loop workload from a seed, drives it serially in one process through
// the surfaces later changes keep (kset.Searcher, and ksetd's HTTP API on
// service.New), checks every verdict, and prints the end-to-end metrics; with
// --trace 1 it instead times calls into each layer and prints the per-layer
// metrics. See README.md for the workloads, metrics and how to run it.
//
// Everything runs on one driving goroutine with one search worker, one ksetd
// job worker and one HTTP client on one keep-alive connection, and no child
// processes, so the figures measure the program rather than the scheduler.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up (a cold page cache, a first heap growth, a
// burst of load from other tenants) does not decide it. The set-ups after the
// first are spread over the run, between ops, so setup_s samples the machine
// over the whole run as the ops do rather than over its first seconds: nine
// serve set-ups before the first session spread 30% from run to run (quartile
// spread of ten runs), where its ops spread 5-8%. A set-up among serve's
// sessions takes longer than the one before them (0.29-0.46 s against
// 0.25-0.32 s), but not with the jobs the measured server has kept
// (correlation 0.05 over live heaps of 8-26 MB), so a faster server does not
// read as a slower set-up.
const setupReps = 9

// heldOutSeed was never used while the benchmark was tuned: re-run a claimed
// gain on it before accepting the claim.
const heldOutSeed = 6151

// scratchRoot holds everything a run writes, inside the checkout.
const scratchRoot = ".bench_build"

// workload is one closed-loop traffic mix. op runs the i-th generated op;
// tr is nil when the run is untraced, and root is the op's span. The ops come
// in rounds of roundLen ops, each a seed-shuffled pass over the workload's
// whole instance set.
type workload interface {
	op(i int, tr *tracer, root int) (opOut, error)
	roundLen() int
	close() error
}

// opOut is what an op reports besides its latency.
type opOut struct {
	// states counts the explore-layer configurations the op visited.
	states int
	// repeat marks an op that asked for an instance already answered in
	// this run; its latency is a hit_p50_ms sample.
	repeat bool
	// hits are round trips answered from ksetd's verdict cache.
	hits []time.Duration
}

type workloadSpec struct {
	setup func(seed uint64) (workload, error)
	// perRound computes the run's statistics per round of ops, each of
	// which holds the same mix, and reports their medians over the run's
	// rounds (see tally.summarize); otherwise they are pooled over its ops.
	perRound bool
	// gcBetweenOps collects garbage before each op, outside the op's time
	// and CPU count: each op stands for an independent verification.
	gcBetweenOps bool
	// rssAfter is the op count at which peak_rss_mb is read, so it covers
	// the same work in every run however many ops the run gets through.
	rssAfter int
}

// workloads are the gated workloads of BENCHMARK.json.
var workloads = map[string]workloadSpec{
	"exhaust": {setup: setupExhaust, gcBetweenOps: true, rssAfter: len(exhaustRound)},
	"serve":   {setup: setupServe, perRound: true, rssAfter: 4000},
}

// workloadProcs is the GOMAXPROCS the workloads run at. At one P everything
// the process does, the collector included, runs on one thread that never
// waits for another, so wall time follows the CPU time the work takes. At
// two Ps the runs followed the load of the machine's other tenants: serve's
// client, HTTP handlers and job worker woke each other across CPUs, and its
// CPU time per session rose (2.6-3.3 ms against 1.96-2.19 ms at one P, runs
// interleaved); exhaust's op time rose far more than its CPU time (five
// 45 s runs each, interleaved: op_p50_ms 261-431 ms and setup_s 0.86-1.44 s
// at two Ps against 304-324 ms and 1.02-1.12 s at one, while CPU per op was
// 658-742 ms against 635-693 ms).
const workloadProcs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: exhaust or serve")
	seed := flag.Uint64("seed", 1, fmt.Sprintf("seed the workload's inputs are generated from (%d is held out for re-checking claimed gains)", heldOutSeed))
	seconds := flag.Int("seconds", 20, "how long the ops are driven, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer probe instead of the end-to-end measurement")
	steady := flag.Int("steady", 0, "if > 0, run the workload this many times in child processes, with seeds from --seed on, and print each end-to-end metric's median and quartiles against its bound")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || *traced < 0 || *traced > 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload exhaust|serve --seed N --seconds S --trace 0|1 [--steady RUNS]")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(scratchRoot, "tmp"), 0o755); err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(*name, *seed, *seconds, *steady); err != nil {
			fatal(err)
		}
		return
	}
	setProcs(workloadProcs)
	printEnv()
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(*name, *seed, *seconds)
	} else {
		res, err = runMeasured(*name, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// setProcs sets GOMAXPROCS, where 0 means one P per CPU.
func setProcs(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printEnv prints what the figures depend on besides the code: the CPUs the
// process may use, the Go runtime and the code itself. The checkout the
// benchmark runs in need not be a git repository, so the sources are also
// identified by a digest of every Go file and go.mod under the root.
func printEnv() {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s src=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// opRec is one successful op.
type opRec struct {
	lat, cpu float64 // ms
	states   int
	hits     []float64 // ms
}

// tally accumulates the ops of one measurement.
type tally struct {
	ops       []opRec
	nhits     int
	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(lat, cpu time.Duration, out opOut, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	r := opRec{lat: ms(lat), cpu: ms(cpu), states: out.states}
	if out.repeat {
		r.hits = append(r.hits, r.lat)
	}
	for _, h := range out.hits {
		r.hits = append(r.hits, ms(h))
	}
	t.nhits += len(r.hits)
	t.ops = append(t.ops, r)
}

// opStats are the end-to-end statistics of a stretch of ops.
type opStats struct {
	p50, p90, hitP50, statesPerS, cpuPerOp float64
	ops                                    int
}

func statsOf(ops []opRec) opStats {
	var lat, hits []float64
	var busy, cpu float64
	states := 0
	for _, r := range ops {
		lat = append(lat, r.lat)
		hits = append(hits, r.hits...)
		busy += r.lat
		cpu += r.cpu
		states += r.states
	}
	return opStats{
		p50: median(lat), p90: percentile(lat, 0.9), hitP50: median(hits),
		statesPerS: float64(states) / (busy / 1000), cpuPerOp: cpu / float64(len(ops)),
		ops: len(ops),
	}
}

// summarize computes each statistic over consecutive windows of w successful
// ops and returns its median across the complete windows, so a burst of
// interference from other tenants of the machine spoils a few windows rather
// than shifting the whole run. With w <= 0, or fewer than two windows of ops,
// it pools all ops instead.
func (t *tally) summarize(w int) (opStats, int) {
	if w <= 0 || len(t.ops) < 2*w {
		return statsOf(t.ops), 1
	}
	var ws []opStats
	for lo := 0; lo+w <= len(t.ops); lo += w {
		ws = append(ws, statsOf(t.ops[lo:lo+w]))
	}
	pick := func(f func(opStats) float64) float64 {
		var xs []float64
		for _, x := range ws {
			if v := f(x); !math.IsNaN(v) { // a window may hold no hits
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	return opStats{
		p50:        pick(func(x opStats) float64 { return x.p50 }),
		p90:        pick(func(x opStats) float64 { return x.p90 }),
		hitP50:     pick(func(x opStats) float64 { return x.hitP50 }),
		statesPerS: pick(func(x opStats) float64 { return x.statesPerS }),
		cpuPerOp:   pick(func(x opStats) float64 { return x.cpuPerOp }),
		ops:        len(ws) * w,
	}, len(ws)
}

// runOps drives ops closed-loop: the next op starts when the previous one
// has finished, until the ops (with the collections between them) have run
// for d, the last round of ops is complete and every metric has a sample.
// pick returns the tally and tracer (nil for untraced) of op i; between, when
// not nil, runs before op i with the run's time so far and does not count
// towards d. It returns the process's peak RSS read after spec.rssAfter ops,
// or at the end of a run that got through fewer, and the number of ops it
// covers.
func runOps(w workload, spec workloadSpec, d time.Duration, pick func(i int) (*tally, *tracer), between func(i int, ran time.Duration) error) (rssMB float64, rssOps int, err error) {
	var ran time.Duration
	i := 0
	for ; ; i++ {
		t, tr := pick(i)
		if i > 0 && i%w.roundLen() == 0 && ran >= d && t.nhits > 0 && len(t.ops) > 0 {
			break
		}
		if i >= 2 && ran >= 2*d && t.failed == t.attempted {
			break // every op fails: stop rather than spin
		}
		if between != nil {
			if err := between(i, ran); err != nil {
				return 0, 0, err
			}
		}
		g0 := time.Now()
		if spec.gcBetweenOps {
			runtime.GC()
		}
		c0 := cpuTime()
		t0 := time.Now()
		root := tr.begin("op", 0, i)
		out, err := w.op(i, tr, root)
		tr.end(root, out.states)
		lat := time.Since(t0)
		t.add(lat, cpuTime()-c0, out, err)
		ran += time.Since(g0)
		if i+1 == spec.rssAfter {
			rssMB, rssOps = peakRSSMB(), i+1
		}
	}
	if rssOps == 0 {
		rssMB, rssOps = peakRSSMB(), i
	}
	return rssMB, rssOps, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runMeasured is the untraced run: set up setupReps times, drive ops for the
// given seconds, and report the end-to-end metrics. The set-ups among the
// ops close their workload at once. Each set-up starts from a collected heap,
// and its time leaves out the collection of its own garbage.
func runMeasured(name string, seed uint64, seconds int) (*result, error) {
	spec := workloads[name]
	d := time.Duration(seconds) * time.Second
	var setups []float64
	setUp := func() (workload, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := spec.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return w, nil
	}
	extra := func() error {
		x, err := setUp()
		if err != nil {
			return err
		}
		return x.close()
	}
	w, err := setUp()
	if err != nil {
		return nil, err
	}
	// The other set-ups start once peak_rss_mb has been read, so that it
	// holds none of their memory, and are spaced evenly over the rest of the
	// run.
	var from time.Duration
	between := func(i int, ran time.Duration) error {
		if i == spec.rssAfter {
			from = ran
		}
		if i < spec.rssAfter || len(setups) == setupReps || ran < from+(d-from)*time.Duration(len(setups))/setupReps {
			return nil
		}
		return extra()
	}
	var t tally
	rss, rssOps, err := runOps(w, spec, d, func(int) (*tally, *tracer) { return &t, nil }, between)
	if err != nil {
		w.close()
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	for len(setups) < setupReps { // a run too short to fit them all
		if err := extra(); err != nil {
			return nil, err
		}
	}

	window := 0
	if spec.perRound {
		window = w.roundLen()
	}
	st, windows := t.summarize(window)
	m := map[string]metric{
		"op_p50_ms":     {st.p50, "ms"},
		"op_p90_ms":     {st.p90, "ms"},
		"states_per_s":  {st.statesPerS, "1/s"},
		"hit_p50_ms":    {st.hitP50, "ms"},
		"cpu_ms_per_op": {st.cpuPerOp, "ms"},
		"peak_rss_mb":   {rss, "MB"},
		"setup_s":       {median(setups), "s"},
	}
	fmt.Printf("workload=%s seed=%d seconds=%d ops=%d failed=%d\n", name, seed, seconds, t.attempted, t.failed)
	for _, e := range t.errs {
		fmt.Printf("  failed op: %s\n", e)
	}
	perWindow, p90Over := fmt.Sprintf("median over %d rounds of %d ops", windows, window), window
	if windows == 1 {
		perWindow, p90Over = "pooled", len(t.ops)
	}
	samples := map[string]string{
		"op_p50_ms":     fmt.Sprintf("n=%d, %s", len(t.ops), perWindow),
		"op_p90_ms":     fmt.Sprintf("n=%d, %s, %d samples beyond each p90", len(t.ops), perWindow, beyond(p90Over, 0.9)),
		"hit_p50_ms":    fmt.Sprintf("n=%d, %s", t.nhits, perWindow),
		"states_per_s":  fmt.Sprintf("states / op time, %s", perWindow),
		"cpu_ms_per_op": fmt.Sprintf("process user+sys, %s", perWindow),
		"peak_rss_mb":   fmt.Sprintf("process peak after %d ops", rssOps),
		"setup_s":       fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups)),
	}
	printMetrics(m, samples)
	return finish(t.attempted, t.failed, m)
}

// finish builds the result line, refusing to print a value JSON cannot hold.
func finish(attempted, failed int, m map[string]metric) (*result, error) {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (no samples)", k)
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func printMetrics(m map[string]metric, notes map[string]string) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-34s %14.6g %-6s %s\n", k, m[k].Value, m[k].Unit, notes[k])
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

// scratchDir makes a fresh directory for one set-up's files.
func scratchDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(scratchRoot, "tmp"), prefix)
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}
