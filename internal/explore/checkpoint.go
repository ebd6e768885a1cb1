package explore

// This file implements checkpoint persistence for breadth-first searches:
// Snapshot/Restore on the Explorer plus the automatic save-on-truncate /
// resume-on-start flow driven by Options.Checkpoint (see boundedStart and
// pauseBounded in bounded.go).
//
// A checkpoint is deliberately tiny relative to the search it pauses: the
// level logs (8 bytes per visited configuration) plus a fixed header. The
// visited-key set and the frontier configurations are NOT serialized — both
// regenerate deterministically from the logs in one O(visited) replay pass
// (Explorer.regenerate), which doubles as an integrity check: a log that
// revisits a sealed key or replays an inapplicable action is rejected.
//
// The file format is versioned and checksummed:
//
//	magic "KSETCKP1"
//	u32 format version (1)
//	u32 sim.FingerprintVersion — the revisit-key encoding the logs' dedup
//	    decisions were made under; a mismatch invalidates the checkpoint
//	    because resuming under a different key function would continue with
//	    a different visited quotient than a fresh run
//	u16 goal kind length, kind bytes
//	u64 search digest (algorithm, inputs, live set, crash budget, modes,
//	    reductions, kind — everything that shapes the traversal except the
//	    resumable knobs MaxConfigs/Workers/Store)
//	u64 visited count, u32 frontier level, u32 position within it
//	u32 level count; per level: u32 record count, records (8 bytes each,
//	    recBits encoding)
//	u64 FNV-1a checksum of everything above
//
// Checkpoint files are self-keyed: checkpointFile names them by digest and
// kind, so unrelated searches sharing one checkpoint directory can never
// clobber or accidentally resume each other.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"kset/internal/quarantine"
	"kset/internal/sim"
)

const (
	ckptMagic   = "KSETCKP1"
	ckptVersion = 1
)

// searchDigest fingerprints everything that determines the traversal of a
// search for the given goal kind: the algorithm, inputs, live set, crash
// budget, delivery modes, active reductions, and the goal itself.
// MaxConfigs, Workers, and Store are deliberately excluded — resuming with
// a larger budget, a different worker count, or a different store
// is exactly the point of a checkpoint, and none of them changes results.
func (e *Explorer) searchDigest(kind string) uint64 {
	h := sim.HashSeed()
	h = sim.HashString(h, e.alg.Name())
	h = sim.HashUint(h, uint64(len(e.inputs)))
	for _, v := range e.inputs {
		h = sim.HashUint(h, uint64(v))
	}
	h = sim.HashUint(h, uint64(len(e.opts.Live)))
	for _, p := range e.opts.Live {
		h = sim.HashUint(h, uint64(p))
	}
	h = sim.HashUint(h, uint64(e.opts.MaxCrashes))
	for _, m := range e.opts.Modes {
		h = sim.HashUint(h, uint64(m))
	}
	var flags uint64
	if e.sym != nil {
		flags |= 1
	}
	if e.por {
		flags |= 2
	}
	if e.opts.Oracle != nil {
		// Oracles are opaque; two searches differing only in their oracle
		// share a digest, which the documentation flags as the caller's
		// responsibility (checkpoint directories are per-experiment anyway).
		flags |= 4
	}
	h = sim.HashUint(h, flags)
	// Fault-adversary fields fold in only under a non-crash model, so
	// crash-only digests — and checkpoints recorded before the fault layer
	// existed — are unchanged.
	if fa := e.opts.Faults; fa.Model != sim.FaultCrash {
		h = sim.HashUint(h, uint64(fa.Model))
		h = sim.HashUint(h, uint64(fa.Budget))
		h = sim.HashUint(h, uint64(fa.MaxFaulty))
	}
	h = sim.HashString(h, kind)
	return sim.HashMix(h)
}

// Digest exposes the search digest for the given goal kind ("disagreement"
// or "blocking"): the content address of the search, identical across
// worker counts and store modes. Verdict caches key completed results by it.
func (e *Explorer) Digest(kind string) uint64 {
	return e.searchDigest(kind)
}

// checkpointFile names the checkpoint for this search and goal kind inside
// the configured checkpoint directory.
func (e *Explorer) checkpointFile(kind string) string {
	return filepath.Join(e.opts.Checkpoint, fmt.Sprintf("%016x-%s.ckpt", e.searchDigest(kind), kind))
}

// quarantineFile renames a corrupt file aside (path + ".corrupt", or a
// numbered suffix when that name is already a previous incident's evidence)
// so it can never be read again but stays available for post-mortem
// inspection. A checkpoint is an optimization, never the source of truth —
// the search regenerates everything from the root — so the automatic resume
// path quarantines unreadable files and starts fresh instead of failing the
// search.
func quarantineFile(path string) {
	quarantine.Aside(path)
}

// clearCheckpoint removes the checkpoint for kind after a search ran to
// completion: the paused state it held is obsolete.
func (e *Explorer) clearCheckpoint(kind string) {
	if e.opts.Checkpoint != "" {
		os.Remove(e.checkpointFile(kind))
	}
}

// Snapshot persists the paused state of the explorer's most recent
// truncated breadth-first search to path. A paused state exists after a
// breadth-first search stopped at MaxConfigs with a retained level log —
// that is, on the in-memory or spill store, or with Options.Checkpoint set.
// The search resumes from the file via Restore on an explorer of the same
// instance (typically one constructed with a larger MaxConfigs).
func (e *Explorer) Snapshot(path string) error {
	if e.pending == nil {
		return fmt.Errorf("explore: no paused search to snapshot (a BFS must first truncate with a retained level log)")
	}
	return writeCheckpoint(path, e.pending)
}

// Restore loads a checkpoint written by Snapshot (or by the automatic
// Options.Checkpoint flow) and stages it as the explorer's pending paused
// search: the next witness search for the same goal kind resumes from it
// instead of starting at the root. The checkpoint must have been written by
// a search of the same instance — same algorithm, inputs, live set, crash
// budget, modes, and reductions — which Restore verifies via the embedded
// digest.
func (e *Explorer) Restore(path string) error {
	p, err := readCheckpoint(path)
	if err != nil {
		return err
	}
	if want := e.searchDigest(p.kind); p.digest != want {
		return fmt.Errorf("explore: checkpoint %s digest %016x does not match this search instance (%016x); it was written by a different algorithm, inputs, live set, budget, modes, or reductions", path, p.digest, want)
	}
	// Under StoreSpill, move the decoded log back onto disk: the resumed
	// search keeps appending to this sink, and retaining it in memory would
	// silently void the spill contract on exactly the workloads spill
	// exists for.
	if e.opts.Store == StoreSpill {
		ds, err := newDiskSink(e.opts.SpillDir)
		if err != nil {
			return err
		}
		if err := copySink(p.sink, ds); err != nil {
			ds.discard()
			return fmt.Errorf("explore: re-spilling checkpoint %s: %w", path, err)
		}
		p.sink = ds
	}
	// A previously pending paused search is superseded; release its log's
	// resources (its own state was persisted at its pause time when
	// checkpointing is configured).
	if e.pending != nil {
		e.pending.sink.discard()
	}
	e.pending = p
	return nil
}

// copySink replays every level record of src into dst.
func copySink(src, dst levelSink) error {
	for l := 0; l < src.levels(); l++ {
		if err := dst.beginLevel(); err != nil {
			return err
		}
		for j, n := 0, src.levelLen(l); j < n; j++ {
			rec, err := src.record(l, j)
			if err != nil {
				return err
			}
			if err := dst.append(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCheckpoint serializes p atomically (temp file + rename).
func writeCheckpoint(path string, p *pausedSearch) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("explore: checkpoint dir: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("explore: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encodeCheckpoint(tmp, p); err != nil {
		tmp.Close()
		return fmt.Errorf("explore: writing checkpoint %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("explore: writing checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("explore: writing checkpoint %s: %w", path, err)
	}
	return nil
}

func encodeCheckpoint(f io.Writer, p *pausedSearch) error {
	h := fnv.New64a()
	bw := bufio.NewWriter(f)
	w := &ckptWriter{w: io.MultiWriter(bw, h)}
	w.bytes([]byte(ckptMagic))
	w.u32(ckptVersion)
	w.u32(sim.FingerprintVersion)
	w.u16(uint16(len(p.kind)))
	w.bytes([]byte(p.kind))
	w.u64(p.digest)
	w.u64(uint64(p.visited))
	w.u32(uint32(p.level))
	w.u32(uint32(p.pos))
	n := p.sink.levels()
	w.u32(uint32(n))
	for l := 0; l < n; l++ {
		cnt := p.sink.levelLen(l)
		w.u32(uint32(cnt))
		for j := 0; j < cnt; j++ {
			rec, err := p.sink.record(l, j)
			if err != nil {
				return err
			}
			w.u64(recBits(rec))
		}
	}
	if w.err != nil {
		return w.err
	}
	// The checksum trailer is not part of its own input.
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// readCheckpoint parses a checkpoint file into a pausedSearch whose level
// logs live in a memSink.
func readCheckpoint(path string) (*pausedSearch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("explore: checkpoint: %w", err)
	}
	defer f.Close()
	p, err := decodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("explore: reading checkpoint %s: %w", path, err)
	}
	return p, nil
}

func decodeCheckpoint(f io.Reader) (*pausedSearch, error) {
	h := fnv.New64a()
	br := bufio.NewReader(f)
	r := &ckptReader{r: io.TeeReader(br, h)}
	magic := r.bytes(len(ckptMagic))
	if r.err == nil && string(magic) != ckptMagic {
		return nil, fmt.Errorf("not a checkpoint file (bad magic)")
	}
	if v := r.u32(); r.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("unsupported checkpoint format version %d (want %d)", v, ckptVersion)
	}
	if v := r.u32(); r.err == nil && v != sim.FingerprintVersion {
		return nil, fmt.Errorf("checkpoint was written under fingerprint encoding v%d, this binary uses v%d; the paused search's dedup decisions no longer apply — restart it", v, sim.FingerprintVersion)
	}
	kind := string(r.bytes(int(r.u16())))
	p := &pausedSearch{kind: kind}
	p.digest = r.u64()
	p.visited = int(r.u64())
	p.level = int(r.u32())
	p.pos = int(r.u32())
	n := int(r.u32())
	sink := &memSink{}
	for l := 0; l < n && r.err == nil; l++ {
		cnt := int(r.u32())
		if err := sink.beginLevel(); err != nil {
			return nil, err
		}
		// Cap the preallocation: cnt comes from unvalidated file bytes (the
		// checksum is only verifiable after the whole stream is read), and a
		// corrupt count must surface as a decode error, not a giant
		// allocation. The append loop below stops at the sticky read error,
		// so an honest large level still loads fine.
		prealloc := cnt
		if prealloc > 1<<20 {
			prealloc = 1 << 20
		}
		recs := make([]uint64, 0, prealloc)
		for j := 0; j < cnt && r.err == nil; j++ {
			recs = append(recs, r.u64())
		}
		sink.recs[l] = recs
	}
	if r.err != nil {
		return nil, r.err
	}
	want := h.Sum64()
	var sum [8]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("truncated checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("checksum mismatch (file corrupt)")
	}
	p.sink = sink
	return p, nil
}

// ckptWriter/ckptReader are minimal little-endian codec helpers with sticky
// errors, so the encode/decode paths read as flat field lists.
type ckptWriter struct {
	w   io.Writer
	err error
}

func (c *ckptWriter) bytes(b []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
}
func (c *ckptWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.bytes(b[:])
}
func (c *ckptWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.bytes(b[:])
}
func (c *ckptWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.bytes(b[:])
}

type ckptReader struct {
	r   io.Reader
	err error
}

func (c *ckptReader) bytes(n int) []byte {
	b := make([]byte, n)
	if c.err == nil {
		_, c.err = io.ReadFull(c.r, b)
	}
	return b
}
func (c *ckptReader) u16() uint16 { return binary.LittleEndian.Uint16(c.bytes(2)) }
func (c *ckptReader) u32() uint32 { return binary.LittleEndian.Uint32(c.bytes(4)) }
func (c *ckptReader) u64() uint64 { return binary.LittleEndian.Uint64(c.bytes(8)) }
