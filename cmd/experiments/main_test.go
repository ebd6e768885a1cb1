package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsUnknownExperimentIDs pins that a selection naming an
// experiment the suite does not have fails with exit status 2 and names
// every unknown ID, without running the known ones: a typo in a
// -write-golden list must not silently drop a table.
func TestRunRejectsUnknownExperimentIDs(t *testing.T) {
	dir := t.TempDir()
	stderr, err := os.CreateTemp(dir, "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	code := run([]string{"-write-golden", dir, "E10", "E99", "e1"})
	os.Stderr = saved
	if code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E99", "e1"} {
		if !strings.Contains(string(msg), id) {
			t.Fatalf("message %q does not name %s", msg, id)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "E10.txt")); !os.IsNotExist(err) {
		t.Fatalf("E10 ran despite the unknown IDs (stat: %v)", err)
	}

	if code := run([]string{"-write-golden", dir, "E10"}); code != 0 {
		t.Fatalf("known ID: exit status %d, want 0", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "E10.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestRunWritesProfiles pins -cpuprofile and -memprofile: a run leaves both
// profiles, each a non-empty gzip stream as runtime/pprof writes them.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "-write-golden", dir, "E14"}); code != 0 {
		t.Fatalf("exit status %d, want 0", code)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			t.Fatalf("%s: %v", path, err)
		}
		body, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(body) == 0 {
			t.Fatalf("%s: %d bytes after gunzip, err %v", path, len(body), err)
		}
	}
}
