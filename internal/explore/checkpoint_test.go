package explore

import (
	"os"
	"path/filepath"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

// ckptInstance is the checkpoint test workhorse: a space large enough to
// truncate at interesting budgets, with reachable witnesses.
func ckptInstance() diffInstance {
	return diffInstance{"minwait-n3-crash", algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 1}
}

func ckptExplorer(d diffInstance, store Store, workers, maxConfigs int, ckptDir string) *Explorer {
	return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live:       d.live,
		MaxCrashes: d.crashes,
		MaxConfigs: maxConfigs,
		Workers:    workers,
		Store:      store,
		Checkpoint: ckptDir,
	})
}

// TestCheckpointResumeParity is the acceptance gate of the checkpoint
// layer: a search truncated at an arbitrary budget — including mid-level
// cuts — and resumed from its checkpoint with a full budget must return the
// identical verdict, witness, and stats as an uninterrupted run, at every
// combination of truncating and resuming worker counts and for every
// store.
func TestCheckpointResumeParity(t *testing.T) {
	d := ckptInstance()
	const fullBudget = 100000
	refW, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if !refFound || refW.Stats.Truncated {
		t.Fatalf("reference search: found=%t stats=%+v", refFound, refW.Stats)
	}
	for _, store := range []Store{StoreInMemory, StoreFrontierOnly, StoreSpill} {
		// The reference witness surfaces at visited=31, so every cut below
		// that truncates; 25 cuts a BFS level mid-way.
		for _, cut := range []int{1, 3, 7, 25, 30} {
			for _, workers := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {4, 2}} {
				dir := t.TempDir()
				w1, found1, err := ckptExplorer(d, store, workers[0], cut, dir).FindDisagreement()
				if err != nil {
					t.Fatal(err)
				}
				if found1 || !w1.Stats.Truncated {
					t.Fatalf("store=%v cut=%d: expected truncation, got found=%t stats=%+v", store, cut, found1, w1.Stats)
				}
				if w1.Checkpoint == "" {
					t.Fatalf("store=%v cut=%d: no checkpoint path reported", store, cut)
				}
				if _, err := os.Stat(w1.Checkpoint); err != nil {
					t.Fatalf("store=%v cut=%d: checkpoint file missing: %v", store, cut, err)
				}
				if w1.Stats.Visited != cut {
					t.Fatalf("store=%v cut=%d: truncated at %d", store, cut, w1.Stats.Visited)
				}
				// Resume on a fresh explorer with the full budget.
				w2, found2, err := ckptExplorer(d, store, workers[1], fullBudget, dir).FindDisagreement()
				if err != nil {
					t.Fatal(err)
				}
				if found2 != refFound || w2.Stats != refW.Stats {
					t.Fatalf("store=%v cut=%d workers=%v: resumed found=%t stats=%+v, uninterrupted found=%t stats=%+v",
						store, cut, workers, found2, w2.Stats, refFound, refW.Stats)
				}
				if w2.Detail != refW.Detail || runSignature(w2.Run) != runSignature(refW.Run) {
					t.Fatalf("store=%v cut=%d workers=%v: resumed witness diverged", store, cut, workers)
				}
				// Completion must clear the checkpoint so nothing stale
				// resumes later.
				if _, err := os.Stat(w1.Checkpoint); !os.IsNotExist(err) {
					t.Fatalf("store=%v cut=%d: checkpoint not removed after completion (err=%v)", store, cut, err)
				}
			}
		}
	}
}

// TestCheckpointChainedResume pauses and resumes the same search through a
// ladder of growing budgets — checkpoint to checkpoint to completion — and
// asserts the final result still matches the uninterrupted run, and that
// intermediate stats stay on the sequential trajectory.
func TestCheckpointChainedResume(t *testing.T) {
	d := ckptInstance()
	const fullBudget = 100000
	refW, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, budget := range []int{2, 10, 25, 30} {
		w, found, err := ckptExplorer(d, StoreFrontierOnly, 1, budget, dir).FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		if found || !w.Stats.Truncated || w.Stats.Visited != budget {
			t.Fatalf("budget=%d: found=%t stats=%+v", budget, found, w.Stats)
		}
	}
	w, found, err := ckptExplorer(d, StoreFrontierOnly, 2, fullBudget, dir).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if found != refFound || w.Stats != refW.Stats || runSignature(w.Run) != runSignature(refW.Run) {
		t.Fatalf("chained resume diverged: found=%t stats=%+v, uninterrupted found=%t stats=%+v",
			found, w.Stats, refFound, refW.Stats)
	}
}

// TestSnapshotRestoreExplicit exercises the exported Snapshot/Restore pair
// without the automatic Options.Checkpoint flow: a spill search truncates
// (its level log is retained on disk), Snapshot writes the paused state,
// and a fresh explorer Restores and completes with the uninterrupted
// result. Exhaustive no-witness verification — the memory-bound workload
// the bounded store exists for — is the goal here.
func TestSnapshotRestoreExplicit(t *testing.T) {
	d := diffInstance{"minwait-n3-uniform", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0}, []sim.ProcessID{1, 2, 3}, 1}
	const fullBudget = 400000
	refW, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if refFound || refW.Stats.Truncated {
		t.Fatalf("uniform inputs cannot disagree and the space must be exhaustible: found=%t stats=%+v", refFound, refW.Stats)
	}

	e1 := ckptExplorer(d, StoreSpill, 1, refW.Stats.Visited/2, "")
	w1, found1, err := e1.FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if found1 || !w1.Stats.Truncated {
		t.Fatalf("expected truncation, got found=%t stats=%+v", found1, w1.Stats)
	}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if err := e1.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	e2 := ckptExplorer(d, StoreFrontierOnly, 1, fullBudget, "")
	if err := e2.Restore(path); err != nil {
		t.Fatal(err)
	}
	w2, found2, err := e2.FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if found2 != refFound || w2.Stats != refW.Stats {
		t.Fatalf("restored search diverged: found=%t stats=%+v, uninterrupted found=%t stats=%+v",
			found2, w2.Stats, refFound, refW.Stats)
	}
}

// TestSnapshotWithoutPause pins the error contract: Snapshot without a
// paused search must fail rather than write an empty file.
func TestSnapshotWithoutPause(t *testing.T) {
	d := ckptInstance()
	e := ckptExplorer(d, StoreFrontierOnly, 1, 0, "")
	if err := e.Snapshot(filepath.Join(t.TempDir(), "x.ckpt")); err == nil {
		t.Fatal("Snapshot succeeded with no paused search")
	}
}

// TestRestoreDigestMismatch asserts a checkpoint cannot be resumed by a
// search of a different instance: different inputs, different algorithm,
// different crash budget, or different reductions.
func TestRestoreDigestMismatch(t *testing.T) {
	d := ckptInstance()
	e1 := ckptExplorer(d, StoreSpill, 1, 10, "")
	if _, found, err := e1.FindDisagreement(); err != nil || found {
		t.Fatalf("setup: found=%t err=%v", found, err)
	}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if err := e1.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	others := []diffInstance{
		{"other-inputs", d.alg, []sim.Value{0, 1, 3}, d.live, d.crashes},
		{"other-alg", algorithms.FirstHeard{}, d.inputs, d.live, d.crashes},
		{"other-budget", d.alg, d.inputs, d.live, 0},
	}
	for _, o := range others {
		e2 := ckptExplorer(o, StoreFrontierOnly, 1, 1000, "")
		if err := e2.Restore(path); err == nil {
			t.Fatalf("%s: Restore accepted a foreign checkpoint", o.name)
		}
	}
	// Same instance with symmetry enabled dedups under a different key
	// function: also incompatible.
	esym := New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live: d.live, MaxCrashes: d.crashes, Store: StoreFrontierOnly, Symmetry: true,
	})
	if err := esym.Restore(path); err == nil {
		t.Fatal("Restore accepted a checkpoint across a reduction change")
	}
}

// TestRestoreCorruptFile asserts the checksum and structural validation
// reject tampered checkpoint bytes.
func TestRestoreCorruptFile(t *testing.T) {
	d := ckptInstance()
	e1 := ckptExplorer(d, StoreSpill, 1, 25, "")
	if _, _, err := e1.FindDisagreement(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if err := e1.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		bad := path + ".bad"
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e2 := ckptExplorer(d, StoreFrontierOnly, 1, 1000, "")
		if err := e2.Restore(bad); err == nil {
			t.Fatalf("Restore accepted checkpoint with byte %d flipped", off)
		}
	}
	if err := os.WriteFile(path+".trunc", raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := ckptExplorer(d, StoreFrontierOnly, 1, 1000, "")
	if err := e2.Restore(path + ".trunc"); err == nil {
		t.Fatal("Restore accepted a truncated checkpoint")
	}
}

// TestRestoreTruncatedAtEveryByte simulates partial writes and disk-full
// cuts exhaustively: a valid checkpoint truncated at every byte boundary
// must be rejected cleanly by Restore — an error, never a panic and never a
// silent partial resume. (The atomic temp+rename write discipline means a
// real crash can only ever leave the previous complete file or none, but
// the decoder must not rely on that.)
func TestRestoreTruncatedAtEveryByte(t *testing.T) {
	d := ckptInstance()
	e1 := ckptExplorer(d, StoreSpill, 1, 25, "")
	if _, _, err := e1.FindDisagreement(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	if err := e1.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ckpt")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		e2 := ckptExplorer(d, StoreFrontierOnly, 1, 1000, "")
		if err := e2.Restore(cut); err == nil {
			t.Fatalf("Restore accepted a checkpoint truncated to %d of %d bytes", n, len(raw))
		}
	}
}

// TestAutoResumeQuarantinesCorruptCheckpoint is the recovery contract of
// the automatic Options.Checkpoint flow: a corrupt or truncated checkpoint
// file must not fail the search — it is renamed aside (".corrupt") and the
// search falls back to a fresh root, producing the exact uninterrupted
// verdict.
func TestAutoResumeQuarantinesCorruptCheckpoint(t *testing.T) {
	d := ckptInstance()
	ref, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, 100000, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(raw []byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"bitflip":   func(raw []byte) []byte { m := append([]byte(nil), raw...); m[len(m)/2] ^= 0x40; return m },
		"garbage":   func(raw []byte) []byte { return []byte("not a checkpoint at all") },
		"empty":     func(raw []byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w1, found1, err := ckptExplorer(d, StoreFrontierOnly, 1, 20, dir).FindDisagreement()
			if err != nil || found1 || w1.Checkpoint == "" {
				t.Fatalf("setup pause: found=%t ckpt=%q err=%v", found1, w1.Checkpoint, err)
			}
			raw, err := os.ReadFile(w1.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(w1.Checkpoint, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			w2, found2, err := ckptExplorer(d, StoreFrontierOnly, 1, 100000, dir).FindDisagreement()
			if err != nil {
				t.Fatalf("resume over corrupt checkpoint errored instead of falling back: %v", err)
			}
			if found2 != refFound || w2.Stats != ref.Stats || w2.Detail != ref.Detail {
				t.Fatalf("fresh fallback diverged: found=%t stats=%+v, uninterrupted found=%t stats=%+v",
					found2, w2.Stats, refFound, ref.Stats)
			}
			if _, err := os.Stat(w1.Checkpoint + ".corrupt"); err != nil {
				t.Fatalf("corrupt checkpoint was not quarantined: %v", err)
			}
		})
	}
}

// TestAutoResumeQuarantinesInconsistentLog covers the corruption the
// checksum cannot catch: a file that decodes fine but does not describe a
// pause of this search. A checkpoint of a *different* instance copied onto
// this search's filename carries a foreign digest; a checkpoint of this
// search rewritten (with a valid checksum and digest) with a record whose
// parent is negative, or with a cursor off its level logs, replays
// inconsistently. The auto-resume path must quarantine each and fall back
// to a fresh search with the uninterrupted verdict.
func TestAutoResumeQuarantinesInconsistentLog(t *testing.T) {
	d := ckptInstance()
	ref, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, 100000, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	// Paused at budget 25, the search is at level 2, position 15.
	doctor := func(mutate func(p *pausedSearch)) func(t *testing.T, dir, path string) {
		return func(t *testing.T, dir, path string) {
			w1, found1, err := ckptExplorer(d, StoreFrontierOnly, 1, 25, dir).FindDisagreement()
			if err != nil || found1 || w1.Checkpoint != path {
				t.Fatalf("setup pause: found=%t ckpt=%q err=%v", found1, w1.Checkpoint, err)
			}
			p, err := readCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.level != 2 || p.pos != 15 || p.visited != 25 {
				t.Fatalf("setup pause at level %d position %d visited %d, want 2/15/25", p.level, p.pos, p.visited)
			}
			mutate(p)
			if err := writeCheckpoint(path, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := map[string]func(t *testing.T, dir, path string){
		"foreign": func(t *testing.T, dir, path string) {
			other := diffInstance{"other", d.alg, []sim.Value{0, 1, 3}, d.live, d.crashes}
			w1, found1, err := ckptExplorer(other, StoreFrontierOnly, 1, 20, dir).FindDisagreement()
			if err != nil || found1 || w1.Checkpoint == "" {
				t.Fatalf("setup pause: found=%t err=%v", found1, err)
			}
			if err := os.Rename(w1.Checkpoint, path); err != nil {
				t.Fatal(err)
			}
		},
		"negative-parent": doctor(func(p *pausedSearch) {
			recs := p.sink.(*memSink).recs
			rec := recFromBits(recs[1][0])
			rec.parent = -1
			recs[1][0] = recBits(rec)
		}),
		"position-past-level": doctor(func(p *pausedSearch) { p.pos = 1000 }),
		"level-past-logs":     doctor(func(p *pausedSearch) { p.level = 7 }),
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := ckptExplorer(d, StoreFrontierOnly, 1, 100000, dir)
			path := e.checkpointFile("disagreement")
			setup(t, dir, path)
			w2, found2, err := e.FindDisagreement()
			if err != nil {
				t.Fatalf("resume over inconsistent checkpoint errored instead of falling back: %v", err)
			}
			if found2 != refFound || w2.Stats != ref.Stats || w2.Detail != ref.Detail {
				t.Fatalf("fresh fallback diverged: found=%t stats=%+v, uninterrupted found=%t stats=%+v",
					found2, w2.Stats, refFound, ref.Stats)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("inconsistent checkpoint was not quarantined: %v", err)
			}
		})
	}
}

// TestCheckpointEveryLevel proves the crash-safety property of the
// level-boundary snapshots: a checkpoint captured mid-run (here: copied
// aside at a level boundary, simulating the state a kill -9 would leave on
// disk) resumes to the exact verdict and stats of the uninterrupted run.
func TestCheckpointEveryLevel(t *testing.T) {
	d := diffInstance{"minwait-n3-uniform", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0}, []sim.ProcessID{1, 2, 3}, 1}
	ref, refFound, err := ckptExplorer(d, StoreFrontierOnly, 1, 400000, "").FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if refFound || ref.Stats.Truncated {
		t.Fatalf("reference: found=%t stats=%+v", refFound, ref.Stats)
	}
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		saved := filepath.Join(dir, "killed-here.bin")
		e := New(sim.Restrict(d.alg, d.live), d.inputs, Options{
			Live: d.live, MaxCrashes: d.crashes, MaxConfigs: 400000,
			Workers: workers, Store: StoreFrontierOnly, Checkpoint: dir,
			OnProgress: func(visited, level int) {
				// snapshotLevel runs before OnProgress at each sealed level:
				// the file on disk now is exactly what a kill here would
				// leave. Keep the level-2 snapshot.
				if level == 2 {
					raw, err := os.ReadFile(e2eCkptPath(dir, d))
					if err != nil {
						t.Errorf("level %d: no live checkpoint on disk: %v", level, err)
						return
					}
					if err := os.WriteFile(saved, raw, 0o644); err != nil {
						t.Error(err)
					}
				}
			},
		})
		w1, found1, err := e.FindDisagreement()
		if err != nil || found1 {
			t.Fatalf("workers=%d: found=%t err=%v", workers, found1, err)
		}
		if w1.Stats != ref.Stats {
			t.Fatalf("workers=%d: checkpointing run diverged: %+v vs %+v", workers, w1.Stats, ref.Stats)
		}
		// Completion must have cleared the live checkpoint.
		if _, err := os.Stat(e2eCkptPath(dir, d)); !os.IsNotExist(err) {
			t.Fatalf("workers=%d: live checkpoint not cleared after completion (err=%v)", workers, err)
		}
		raw, err := os.ReadFile(saved)
		if err != nil {
			t.Fatalf("workers=%d: no mid-run snapshot captured: %v", workers, err)
		}
		// "Restart" from the mid-run snapshot: the resumed search must land
		// on the uninterrupted verdict and stats bit for bit.
		if err := os.WriteFile(e2eCkptPath(dir, d), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, found2, err := ckptExplorer(d, StoreFrontierOnly, workers, 400000, dir).FindDisagreement()
		if err != nil || found2 {
			t.Fatalf("workers=%d: resumed: found=%t err=%v", workers, found2, err)
		}
		if w2.Stats != ref.Stats {
			t.Fatalf("workers=%d: resume from mid-run snapshot diverged: %+v vs %+v", workers, w2.Stats, ref.Stats)
		}
	}
}

// e2eCkptPath names the disagreement checkpoint file an explorer of d with
// the given checkpoint dir would use, without needing the explorer itself.
func e2eCkptPath(dir string, d diffInstance) string {
	e := New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live: d.live, MaxCrashes: d.crashes, Store: StoreFrontierOnly, Checkpoint: dir,
	})
	return e.checkpointFile("disagreement")
}

// TestCheckpointRequiresBoundedStore pins the option-validation contract:
// a depth-first search refuses Options.Checkpoint, since pausing it would
// persist its whole stack of configurations.
func TestCheckpointRequiresBoundedStore(t *testing.T) {
	d := ckptInstance()
	edfs := New(sim.Restrict(d.alg, d.live), d.inputs, Options{
		Live: d.live, MaxCrashes: d.crashes, Strategy: "dfs",
		Store: StoreFrontierOnly, Checkpoint: t.TempDir(),
	})
	if _, _, err := edfs.FindDisagreement(); err == nil {
		t.Fatal("DFS accepted Options.Checkpoint")
	}
}
