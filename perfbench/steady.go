package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload `runs` times, each in a child process with its
// own seed (seed, seed+1, ...), and prints each end-to-end metric's median and
// quartiles against its bound in BENCHMARK.json, then one traced run's
// tracing-overhead line. A metric is steady when its quartile spread is below
// a third of its bound.
func steadiness(name string, seed uint64, seconds, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		res, err := child(exe, name, s, seconds, 0)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("run seed=%d correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			values[k] = append(values[k], res.Metrics[k].Value)
			fmt.Printf(" %s=%.6g", k, res.Metrics[k].Value)
		}
		fmt.Println()
	}
	fmt.Printf("steadiness: workload=%s runs=%d seconds=%d seeds=%d..%d\n", name, runs, seconds, seed, seed+uint64(runs)-1)
	fmt.Printf("  %-16s %12s %12s %12s %9s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "spread < bound/3")
	for _, k := range sortedKeys(values) {
		q1, q2, q3 := quartiles(values[k])
		spread := (q3 - q1) / q2
		b, ok := bounds[k]
		verdict := "no bound"
		if ok {
			verdict = strconv.FormatBool(spread < b/3)
		}
		fmt.Printf("  %-16s %12.6g %12.6g %12.6g %8.2f%% %6.0f%%  %s\n", k, q2, q1, q3, 100*spread, 100*b, verdict)
	}
	res, err := child(exe, name, seed, seconds, 1)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	fmt.Printf("  tracing overhead (seed %d): %+.4f ms on op_p50_ms; traced run correct=%v failed=%d\n",
		seed, res.Metrics["trace.overhead_ms"].Value, res.Correct, res.Failed)
	return nil
}

// child runs one benchmark run in a child process, waits for it and parses
// its last output line.
func child(exe, name string, seed uint64, seconds, trace int) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// readBounds returns the end-to-end bounds from the benchmark definition.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
