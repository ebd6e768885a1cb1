package explore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/testutil"
)

// consensusFind is a consensus-failure search on an explorer; the returned
// Stats are the disagreement search's.
type consensusFind func(*Explorer) (*Witness, bool, Stats, error)

// twoSearches is the reference FindConsensusFailure is checked against:
// FindDisagreement, then FindBlocking unless a witness was found or the
// disagreement search was cancelled.
func twoSearches(e *Explorer) (*Witness, bool, Stats, error) {
	w, found, err := e.FindDisagreement()
	if err != nil {
		return nil, false, Stats{}, err
	}
	if found || w.Stats.Cancelled {
		return w, found, w.Stats, nil
	}
	first := w.Stats
	w, found, err = e.FindBlocking()
	return w, found, first, err
}

// onePass is the entry point under test.
func onePass(e *Explorer) (*Witness, bool, Stats, error) { return e.FindConsensusFailure() }

// observeConsensusFailure runs find on e and renders everything its caller
// can observe: kind, found flag, Stats, the disagreement search's Stats,
// the witness's detail, event trace and final configuration, the
// OnProgress marks, and the kind and bytes of the pause left pending, as
// Snapshot writes it. On a sharded explorer only participant 0 reports
// progress, as Shard arranges. It also returns the witness and the
// disagreement search's Stats.
func observeConsensusFailure(e *Explorer, find consensusFind, dir string) (string, *Witness, Stats, error) {
	var marks []string
	if e.shard == nil || e.shard.index == 0 {
		e.opts.OnProgress = func(visited, level int) {
			marks = append(marks, fmt.Sprintf("%d@%d", visited, level))
		}
	}
	w, found, first, err := find(e)
	if err != nil {
		return "", nil, Stats{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%s found=%t stats=%+v first=%+v", w.Kind, found, w.Stats, first)
	if found {
		fmt.Fprintf(&b, " detail=%q trace=%s", w.Detail, runTrace(w.Run))
	}
	fmt.Fprintf(&b, " profile=%s", strings.Join(marks, ","))
	path := filepath.Join(dir, "pending.ckpt")
	if err := e.Snapshot(path); err != nil {
		b.WriteString(" pending=none")
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", nil, Stats{}, err
		}
		fmt.Fprintf(&b, " pending=%s:%x", e.pending.kind, sha256.Sum256(data))
	}
	return b.String(), w, first, nil
}

// consensusRow is one consensus-failure search of the differential test.
type consensusRow struct {
	inst       diffInstance
	reduced    bool // symmetry and POR, or neither
	maxConfigs int  // 0 runs exhaustively
}

func (r consensusRow) name() string {
	red := "plain"
	if r.reduced {
		red = "sym+por"
	}
	return fmt.Sprintf("%s/%s/max=%d", r.inst.name, red, r.maxConfigs)
}

func (r consensusRow) explorer(c goldenConfig) *Explorer {
	return goldenRow{inst: r.inst, sym: r.reduced, por: r.reduced, maxConfigs: r.maxConfigs}.explorer(c)
}

// consensusReference observes the row's two searches on the given store, on
// the packed engine's serial loop: the kernel golden table pins their
// results to every worker count and engine, and the store decides only
// which pause is left pending.
func consensusReference(t *testing.T, r consensusRow, store Store) string {
	t.Helper()
	want, _, _, err := observeConsensusFailure(r.explorer(goldenConfig{store, 1, true}), twoSearches, t.TempDir())
	if err != nil {
		t.Fatalf("%v two searches: %v", store, err)
	}
	return want
}

// checkOnePass observes the entry point on configuration c, requires the
// observation want, revalidates a found witness and returns it.
func checkOnePass(t *testing.T, r consensusRow, c goldenConfig, want string) *Witness {
	t.Helper()
	got, w, _, err := observeConsensusFailure(r.explorer(c), onePass, t.TempDir())
	if err != nil {
		t.Fatalf("%+v one pass: %v", c, err)
	}
	if got != want {
		t.Fatalf("%+v: one pass diverged from the two searches:\n got %s\nwant %s", c, got, want)
	}
	if w.Run != nil {
		testutil.RevalidateWitness(t, w.Kind, w.Run)
	}
	return w
}

// TestFindConsensusFailureOnePass checks the one-pass FindConsensusFailure
// against FindDisagreement followed by FindBlocking over the POR suite,
// plain and with symmetry and POR, exhaustive and cut at 25 and 250
// configurations, at the six pairwise store, worker and engine
// configurations: kind, found flag, Detail, Stats, the disagreement search's
// Stats, the witness's event trace and final configuration, the whole
// OnProgress sequence, and the pause left pending, byte for byte.
func TestFindConsensusFailureOnePass(t *testing.T) {
	for _, d := range porInstances() {
		for _, reduced := range []bool{false, true} {
			for _, maxConfigs := range []int{0, 25, 250} {
				r := consensusRow{inst: d, reduced: reduced, maxConfigs: maxConfigs}
				t.Run(r.name(), func(t *testing.T) {
					t.Parallel()
					want := map[Store]string{}
					for _, c := range pairwiseConfigs {
						if _, ok := want[c.store]; !ok {
							want[c.store] = consensusReference(t, r, c.store)
						}
						checkOnePass(t, r, c, want[c.store])
					}
				})
			}
		}
	}
}

// TestFindConsensusFailureBlockingBeforeCut pins the case where the
// blocking search stops before the budget cuts the disagreement search:
// quorummin-n3-crash, whose blocking witness is sealed at visited 249 while
// the disagreement search runs to its 250-configuration cut. The
// disagreement search's pause stays pending, and on the retaining stores the
// blocking witness is read off its level log, which must survive the read.
func TestFindConsensusFailureBlockingBeforeCut(t *testing.T) {
	r := consensusRow{inst: porInstances()[len(porInstances())-1], maxConfigs: 250}
	if r.inst.name != "quorummin-n3-crash" {
		t.Fatalf("instance %s, want quorummin-n3-crash", r.inst.name)
	}
	for _, c := range pairwiseConfigs {
		w := checkOnePass(t, r, c, consensusReference(t, r, c.store))
		if w.Kind != "blocking" || w.Run == nil || w.Stats.Visited != 249 {
			t.Fatalf("%+v: got %s witness=%t %+v, want a blocking witness at visited 249", c, w.Kind, w.Run != nil, w.Stats)
		}
		e := r.explorer(c)
		_, _, first, err := e.FindConsensusFailure()
		if err != nil {
			t.Fatal(err)
		}
		if first.Visited != 250 || !first.Truncated {
			t.Fatalf("%+v: disagreement search %+v, want cut at 250", c, first)
		}
		if retains := c.store != StoreFrontierOnly; retains != (e.pending != nil) {
			t.Fatalf("%+v: pending pause %v", c, e.pending)
		}
		if e.pending != nil && e.pending.kind != "disagreement" {
			t.Fatalf("%+v: pending pause of kind %s, want disagreement", c, e.pending.kind)
		}
		// The pending log still resumes: a larger budget finishes the
		// disagreement search exactly as a fresh one does.
		if e.pending != nil {
			e.opts.MaxConfigs = DefaultMaxConfigs
			resumed, _, err := e.FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := consensusRow{inst: r.inst}.explorer(c).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Stats != fresh.Stats {
				t.Fatalf("%+v: resumed disagreement search %+v, fresh %+v", c, resumed.Stats, fresh.Stats)
			}
		}
	}
}

// TestFindConsensusFailureShardedOnePass runs the entry point on 2 and 3
// in-process participants over quorummin-n3-crash and requires every
// participant to observe what the two searches observe on one explorer
// (participants other than 0 report no progress).
func TestFindConsensusFailureShardedOnePass(t *testing.T) {
	d := porInstances()[len(porInstances())-1]
	for _, reduced := range []bool{false, true} {
		for _, maxConfigs := range []int{0, 25, 250} {
			r := consensusRow{inst: d, reduced: reduced, maxConfigs: maxConfigs}
			for _, store := range []Store{StoreInMemory, StoreFrontierOnly, StoreSpill} {
				c := goldenConfig{store: store, workers: 1, packed: true}
				want := consensusReference(t, r, store)
				quiet := want[:strings.Index(want, " profile=")] + " profile=" + want[strings.Index(want, " pending="):]
				for _, shards := range []int{2, 3} {
					dirs := make([]string, shards)
					for i := range dirs {
						dirs[i] = t.TempDir()
					}
					outs, err := runSharded(func() *Explorer { return r.explorer(c) }, shards, func(e *Explorer) (string, error) {
						got, _, _, err := observeConsensusFailure(e, onePass, dirs[e.shard.index])
						return got, err
					})
					if err != nil {
						t.Fatalf("%s %v shards=%d: %v", r.name(), store, shards, err)
					}
					for i, got := range outs {
						w := want
						if i > 0 {
							w = quiet
						}
						if got != w {
							t.Fatalf("%s %v shards=%d participant %d diverged:\n got %s\nwant %s", r.name(), store, shards, i, got, w)
						}
					}
				}
			}
		}
	}
}
