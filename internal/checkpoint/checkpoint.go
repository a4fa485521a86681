// Package checkpoint serializes the campaign engine's full
// measurement state at batch barriers — the step-batched scheduler's
// proven safe points, where every worker has drained and all per-VP
// state is at a consistent virtual instant — so a long campaign can be
// killed and resumed bit-identically (DESIGN.md §15).
//
// A checkpoint file is a small framed container: an 8-byte magic, the
// payload length, and an IEEE CRC32 of the payload, then the payload:
// a header and one gob value per VP, which hold everything but the
// shard arenas' page bytes (the header carries their lengths only),
// followed by those pages raw, as they stand in the arenas. gob
// carries float64s by bit pattern, so a round-tripped snapshot is
// exactly the state that was captured — the bit-identity invariant
// survives serialization. Files are written atomically
// (temp + rename) and named by their barrier instant; LoadLatest walks
// newest-first and transparently falls back past truncated or corrupt
// files, which is exactly what a SIGKILL mid-write leaves behind.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"afrixp/internal/analysis"
	"afrixp/internal/budget"
	"afrixp/internal/loss"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/tschunk"
)

// Format is the serialization format version. Bump on any
// incompatible change to Snapshot's shape; LoadLatest refuses
// mismatched formats with a hard error. Format 4 kept every
// collector's series bytes in the per-shard Arenas (one per VP when
// unsharded): collector builder states carry no bytes of their own,
// and the full-resolution windows are builder states too. Format 5
// drops the loss collectors' streamed rate grid (the batch list is the
// one loss store) and the tuning copy in each budget tap's state.
// Format 6 stores the arenas as fixed pages written raw after the gob
// message, which carries only their lengths. Format 7 splits that
// message into a header and one gob value per VP, so the encoder's
// buffer grows to the largest VP, not to the whole snapshot.
const Format = 7

// magic identifies a checkpoint file.
const magic = "AFXCKPT1"

// headerLen is magic + payload length (8) + CRC32 (4).
const headerLen = len(magic) + 8 + 4

// keepNewest is how many barrier snapshots Write retains: the newest
// plus two fallbacks, so a snapshot truncated by a kill mid-write
// always leaves an older complete barrier to resume from.
const keepNewest = 3

// Manifest identifies the run a snapshot belongs to. A resume
// verifies it against the resuming process's own configuration, so
// loading a checkpoint onto the wrong (seed, scale, budget, faults,
// shards) fails loudly instead of silently diverging.
type Manifest struct {
	// Format is the serialization format version.
	Format int
	// ConfigHash digests every determinism-relevant engine knob.
	// Execution-shape knobs (Workers, BatchSteps, checkpoint cadence)
	// are deliberately excluded: the engine is bit-identical across
	// them, so a resume may change them freely.
	ConfigHash string
	// WorldFingerprint digests the generated world before any
	// campaign-time advancement (worldgen.Fingerprint).
	WorldFingerprint string
}

// LinkState is one probed link's measurement state.
type LinkState struct {
	Collector analysis.CollectorState
	// Loss is nil for links without a loss-probing session.
	Loss *loss.CollectorState
}

// VPState is one vantage point's measurement state, links in the
// engine's deterministic per-VP order.
type VPState struct {
	RoundsScheduled, RoundsDown int
	Prober                      prober.CheckpointState
	Links                       []LinkState
}

// Snapshot is the engine's full measurement-side state at a barrier.
// World and queue state is deliberately absent: it is a deterministic
// function of (config, virtual time), which the resuming engine
// replays — the snapshot holds only what probing accumulated.
type Snapshot struct {
	Manifest Manifest
	// Barrier is the batch-barrier instant the snapshot was taken at.
	Barrier simclock.Time
	VPs     []VPState
	// Budget is nil when no probe-budget scheduler is installed.
	Budget *budget.SchedulerCheckpoint
	// Arenas holds each shard's tschunk pages (tschunk.Arena.State),
	// shard order: every collector's sealed blocks. They are not part
	// of the gob values; Write appends the page bytes raw after them.
	Arenas [][][]byte
}

// header is the first gob value of a checkpoint payload: the snapshot
// with its VPs replaced by their count (the VPStates follow it, one
// gob value each) and each arena page by its length. It has no field
// named VPs or Arenas, so older files, whose one message carried both,
// still decode as far as the format check.
type header struct {
	Manifest Manifest
	Barrier  simclock.Time
	NumVPs   int
	Budget   *budget.SchedulerCheckpoint
	PageLens [][]int
}

// sliceHeaderBytes is the size of one []byte header: what each page of
// a decoded snapshot costs beyond its bytes.
const sliceHeaderBytes = 24

// fileName names a snapshot by its barrier instant; zero-padding keeps
// lexicographic order equal to barrier order.
func fileName(t simclock.Time) string {
	return fmt.Sprintf("ckpt-%020d.bin", uint64(t))
}

// Write serializes snap into dir atomically (temp file + rename), then
// prunes all but the newest keepNewest snapshots. The payload streams
// to the file: the header and then each VP as its own gob value, so
// gob's buffer, which one encoder reuses across values, grows only to
// the largest VP; then the arena pages as they stand, never
// concatenated or re-encoded. It returns the payload size in bytes —
// the figure the checkpoint benchmark reports.
func Write(dir string, snap *Snapshot) (int, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	hdr := header{Manifest: snap.Manifest, Barrier: snap.Barrier, NumVPs: len(snap.VPs), Budget: snap.Budget,
		PageLens: make([][]int, len(snap.Arenas))}
	for i, pages := range snap.Arenas {
		hdr.PageLens[i] = make([]int, len(pages))
		for j, p := range pages {
			hdr.PageLens[i][j] = len(p)
		}
	}

	final := filepath.Join(dir, fileName(snap.Barrier))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	size, err := writePayload(f, &hdr, snap)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	prune(dir)
	return size, nil
}

// writePayload writes the payload after a header-sized gap, then fills
// the file header in, and returns the payload length. A buffer
// gathers gob's small values (type definitions, VPs with few links),
// so a world of thousands of VPs is not one write call each; values
// and pages larger than the buffer pass through it uncopied.
func writePayload(f *os.File, hdr *header, snap *Snapshot) (int, error) {
	if _, err := f.Seek(int64(headerLen), io.SeekStart); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	fr := &frame{w: bw}
	enc := gob.NewEncoder(fr)
	if err := enc.Encode(hdr); err != nil {
		return 0, fmt.Errorf("encoding snapshot: %w", err)
	}
	for i := range snap.VPs {
		if err := enc.Encode(&snap.VPs[i]); err != nil {
			return 0, fmt.Errorf("encoding snapshot: %w", err)
		}
	}
	for _, pages := range snap.Arenas {
		for _, p := range pages {
			if _, err := fr.Write(p); err != nil {
				return 0, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	_, err := f.WriteAt(fr.header(), 0)
	return fr.n, err
}

// frame is a writer that tallies the length and CRC32 of the payload
// passing through it.
type frame struct {
	w   io.Writer
	n   int
	crc uint32
}

func (fr *frame) Write(p []byte) (int, error) {
	fr.n += len(p)
	fr.crc = crc32.Update(fr.crc, crc32.IEEETable, p)
	return fr.w.Write(p)
}

// header returns the file header framing the payload: magic, payload
// length, CRC32.
func (fr *frame) header() []byte {
	header := make([]byte, headerLen)
	copy(header, magic)
	binary.BigEndian.PutUint64(header[len(magic):], uint64(fr.n))
	binary.BigEndian.PutUint32(header[len(magic)+8:], fr.crc)
	return header
}

// prune removes all but the newest keepNewest snapshots. Best-effort:
// a failed removal never fails the checkpoint that just landed.
func prune(dir string) {
	names := snapshotNames(dir)
	for _, name := range names[:max(0, len(names)-keepNewest)] {
		os.Remove(filepath.Join(dir, name))
	}
}

// snapshotNames lists snapshot files in dir, oldest first.
func snapshotNames(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".bin") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// LoadLatest returns the newest readable snapshot in dir, skipping
// truncated or corrupt files (a kill mid-write leaves exactly those) —
// the fallback that makes resume survive dying during a checkpoint.
// When want is non-nil, the loaded manifest must match it exactly;
// a mismatch is a hard error, never a fallback, because an older
// snapshot from the wrong run would be just as wrong. A snapshot of
// another Format is the same hard error whether or not want is given.
// (nil, nil) means no checkpoint exists and the caller should start
// fresh.
func LoadLatest(dir string, want *Manifest) (*Snapshot, error) {
	names := snapshotNames(dir)
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		snap, ok := decodeSnapshot(data)
		if !ok {
			continue // truncated or corrupt: fall back to the prior barrier
		}
		if snap.Manifest.Format != Format {
			return nil, fmt.Errorf(
				"checkpoint: %s belongs to a different run: format %d, this build reads format %d",
				path, snap.Manifest.Format, Format)
		}
		if want != nil && snap.Manifest != *want {
			return nil, fmt.Errorf(
				"checkpoint: %s belongs to a different run: have %+v, want %+v",
				path, snap.Manifest, *want)
		}
		return snap, nil
	}
	return nil, nil
}

// decodeSnapshot parses one file's bytes. ok=false flags recoverable
// damage: truncation, a bad CRC, a payload gob cannot decode, fewer
// VPs than the header counts, or page lengths that do not split the
// bytes after the gob values. The decoded pages alias data.
func decodeSnapshot(data []byte) (*Snapshot, bool) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return nil, false
	}
	payloadLen := binary.BigEndian.Uint64(data[len(magic):])
	wantCRC := binary.BigEndian.Uint32(data[len(magic)+8:])
	payload := data[headerLen:]
	if uint64(len(payload)) != payloadLen {
		return nil, false // truncated (or trailing garbage)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, false
	}
	// A bytes.Reader is an io.ByteReader, so gob reads exactly the
	// header and VP values and leaves the pages unread.
	r := bytes.NewReader(payload)
	dec := gob.NewDecoder(r)
	var hdr header
	if err := dec.Decode(&hdr); err != nil || hdr.NumVPs < 0 {
		return nil, false // CRC race with format drift: treat as damage
	}
	snap := &Snapshot{Manifest: hdr.Manifest, Barrier: hdr.Barrier, Budget: hdr.Budget}
	// The VP list grows one decoded value at a time, never from the
	// count: each Decode consumes payload, so a crafted count runs out
	// of bytes and fails here.
	for range hdr.NumVPs {
		var vs VPState
		if err := dec.Decode(&vs); err != nil {
			return nil, false
		}
		snap.VPs = append(snap.VPs, vs)
	}
	arenas, ok := splitPages(hdr.PageLens, payload, len(payload)-r.Len())
	if !ok {
		return nil, false
	}
	snap.Arenas = arenas
	return snap, true
}

// splitPages cuts the payload after its msgLen bytes of gob values into
// the arena pages lens describes. The lengths must be at most a page
// each and add up to exactly the bytes left, and the page count is
// bounded before any page list is allocated: the pages' slice headers
// may not outweigh the payload, so no crafted count allocates beyond
// it.
func splitPages(lens [][]int, payload []byte, msgLen int) ([][][]byte, bool) {
	rest := payload[msgLen:]
	npages, total := 0, 0
	for _, arena := range lens {
		for _, n := range arena {
			if n < 0 || n > tschunk.PageSize {
				return nil, false
			}
			total += n
		}
		npages += len(arena)
	}
	if total != len(rest) || npages*sliceHeaderBytes > len(payload) {
		return nil, false
	}
	arenas := make([][][]byte, len(lens))
	all := make([][]byte, npages)
	for i, arena := range lens {
		arenas[i], all = all[:len(arena):len(arena)], all[len(arena):]
		for j, n := range arena {
			arenas[i][j], rest = rest[:n:n], rest[n:]
		}
	}
	return arenas, true
}
