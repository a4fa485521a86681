package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"afrixp/internal/analysis"
	"afrixp/internal/budget"
	"afrixp/internal/loss"
	"afrixp/internal/simclock"
	"afrixp/internal/tschunk"
)

// openBlockState is the state of a private builder over len(vals)
// slots whose open block holds vals, captured the way the engine does.
func openBlockState(vals ...float64) tschunk.BuilderState {
	b := tschunk.NewBuilder(len(vals))
	for i, v := range vals {
		b.Set(i, v)
	}
	return b.State()
}

// frameHeader returns the file header framing payload.
func frameHeader(payload []byte) []byte {
	fr := frame{w: io.Discard}
	fr.Write(payload)
	return fr.header()
}

// arenaPages returns the pages of a shard arena holding one builder's
// sealed n-slot full-entropy grid, about 7 bytes a slot.
func arenaPages(n int) [][]byte {
	a := tschunk.NewArena(0)
	rng := rand.New(rand.NewSource(int64(n)))
	b := tschunk.NewBuilderArena(n, a)
	for i := 0; i < n; i++ {
		b.Set(i, 1+rng.Float64())
	}
	b.Seal()
	return a.State()
}

// snapAt builds a small but fully-populated snapshot: NaN-holed float
// payloads (the bit pattern gob must preserve), an encoded open
// builder block, an optional loss collector, a budget checkpoint, and
// three shard arenas: two of one short page each and an empty one.
func snapAt(barrier simclock.Time) *Snapshot {
	nan := math.NaN()
	return &Snapshot{
		Manifest: Manifest{Format: Format, ConfigHash: "cfg", WorldFingerprint: "world"},
		Barrier:  barrier,
		VPs: []VPState{{
			RoundsScheduled: 42,
			RoundsDown:      3,
			Links: []LinkState{
				{Collector: analysis.CollectorState{
					FullNearB: openBlockState(1.5, nan, 3.25), FullFarB: openBlockState(nan, 2.5, nan),
					FarRounds: 7, SkippedRounds: 2,
				}},
				{Collector: analysis.CollectorState{NearB: openBlockState(nan, 4.5, nan)},
					Loss: &loss.CollectorState{
						Batches: []loss.Batch{{Start: barrier, Sent: 100, Lost: 4}},
						Skipped: 1, Missed: 2,
					}},
			},
		}},
		Budget: &budget.SchedulerCheckpoint{Next: barrier.Add(1), Recomputes: 5, SpendFrac: 0.5},
		Arenas: [][][]byte{arenaPages(300), arenaPages(20), nil},
	}
}

// threePages is a shard arena spanning three pages.
var threePages = arenaPages(3 * tschunk.PageSize / 8)

func TestWriteLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	snap := snapAt(1000)
	snap.Arenas[0] = threePages
	n, err := Write(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("payload size %d, want > 0", n)
	}
	got, err := LoadLatest(dir, &snap.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LoadLatest returned nil for a just-written snapshot")
	}
	if got.Barrier != 1000 || got.Manifest != snap.Manifest {
		t.Fatalf("roundtrip header mismatch: %+v", got)
	}
	// Each restored grid is one block: decode it whole.
	decode := func(st tschunk.BuilderState) []float64 {
		b := tschunk.NewBuilder(st.N)
		b.RestoreState(st)
		return b.Seal().DecodeBlock(0, make([]float64, 0, tschunk.BlockLen))
	}
	if v := decode(got.VPs[0].Links[0].Collector.FullNearB); v[0] != 1.5 || !math.IsNaN(v[1]) || v[2] != 3.25 {
		t.Fatalf("float payload (incl. NaN) not preserved: %+v", got.VPs[0].Links[0].Collector.FullNearB)
	}
	if v := decode(got.VPs[0].Links[1].Collector.NearB); !math.IsNaN(v[0]) || v[1] != 4.5 || !math.IsNaN(v[2]) {
		t.Fatalf("builder state not preserved: %+v", got.VPs[0].Links[1].Collector.NearB)
	}
	l := got.VPs[0].Links[1].Loss
	if l == nil || l.Batches[0].Lost != 4 || l.Skipped != 1 || l.Missed != 2 {
		t.Fatalf("loss state not preserved: %+v", l)
	}
	if got.Budget == nil || got.Budget.Recomputes != 5 || got.Budget.SpendFrac != 0.5 {
		t.Fatalf("budget state not preserved: %+v", got.Budget)
	}
	if !reflect.DeepEqual(got.Arenas[:2], snap.Arenas[:2]) || len(got.Arenas) != 3 || len(got.Arenas[2]) != 0 {
		t.Fatalf("arena pages not preserved: %d arenas, %d pages in the first",
			len(got.Arenas), len(got.Arenas[0]))
	}
	if len(got.Arenas[0]) < 3 {
		t.Fatalf("test arena spans %d pages, want at least 3", len(got.Arenas[0]))
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	snap, err := LoadLatest(t.TempDir(), nil)
	if err != nil || snap != nil {
		t.Fatalf("empty dir: snap=%v err=%v, want nil/nil", snap, err)
	}
	snap, err = LoadLatest(filepath.Join(t.TempDir(), "never-created"), nil)
	if err != nil || snap != nil {
		t.Fatalf("missing dir: snap=%v err=%v, want nil/nil", snap, err)
	}
}

// A kill mid-write leaves a truncated or corrupt newest file; the
// loader must fall back to the previous complete barrier snapshot.
func TestLoadLatestFallsBackPastDamage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, snapAt(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(dir, snapAt(2000)); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, fileName(2000))

	damage := []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncated-mid-payload", func(d []byte) []byte { return d[:len(d)/2] }},
		{"truncated-in-header", func(d []byte) []byte { return d[:headerLen-2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"flipped-payload-bit", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }},
		{"bad-magic", func(d []byte) []byte { d[0] = 'X'; return d }},
	}
	pristine, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	for _, dm := range damage {
		buf := append([]byte(nil), pristine...)
		if err := os.WriteFile(newest, dm.mut(buf), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadLatest(dir, nil)
		if err != nil {
			t.Fatalf("%s: %v", dm.name, err)
		}
		if got == nil || got.Barrier != 1000 {
			t.Fatalf("%s: fell back to %+v, want barrier 1000", dm.name, got)
		}
	}
}

func TestWritePrunesToNewest(t *testing.T) {
	dir := t.TempDir()
	for _, b := range []simclock.Time{100, 200, 300, 400, 500} {
		if _, err := Write(dir, snapAt(b)); err != nil {
			t.Fatal(err)
		}
	}
	names := snapshotNames(dir)
	if len(names) != keepNewest {
		t.Fatalf("kept %d snapshots %v, want %d", len(names), names, keepNewest)
	}
	if names[0] != fileName(300) || names[len(names)-1] != fileName(500) {
		t.Fatalf("pruned the wrong files: %v", names)
	}
	got, err := LoadLatest(dir, nil)
	if err != nil || got == nil || got.Barrier != 500 {
		t.Fatalf("LoadLatest after prune: %+v, %v", got, err)
	}
}

// A snapshot from a differently-configured run is a hard error, never
// a silent fresh start and never a fallback to an older (equally
// wrong) file.
func TestManifestMismatchIsHardError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, snapAt(1000)); err != nil {
		t.Fatal(err)
	}
	want := Manifest{Format: Format, ConfigHash: "other", WorldFingerprint: "world"}
	if _, err := LoadLatest(dir, &want); err == nil {
		t.Fatal("manifest mismatch must be an error")
	} else if !strings.Contains(err.Error(), "different run") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Lexicographic name order must equal barrier order even across
// magnitude boundaries — the zero-padding contract prune and
// LoadLatest rely on.
func TestFileNameOrdering(t *testing.T) {
	if a, b := fileName(999), fileName(1000); a >= b {
		t.Fatalf("fileName ordering broken: %q >= %q", a, b)
	}
}

// The v2* types mirror the Format-2 snapshot shape, whose builders
// carried the open block as raw float64s (v2BuilderState is the old
// tschunk.BuilderState verbatim; the enclosing types keep only the
// path to it).
type v2BuilderState struct {
	N      int
	Blocks []tschunk.BlockRef
	Shared bool
	Arena  []byte
	EncLen int
	HasNaN bool
	NaNRef tschunk.BlockRef
	CurBlk int
	Cur    []float64
	Dirty  bool
}

type v2Collector struct{ NearB, FarB v2BuilderState }

type v2Link struct{ Collector v2Collector }

type v2VP struct{ Links []v2Link }

type v2Snapshot struct {
	Manifest Manifest
	Barrier  simclock.Time
	VPs      []v2VP
}

// A Format-2 file still decodes (gob skips the raw block the renamed
// field left behind), so it must reach the format check and fail
// loudly: a resume that silently started over would look like success.
func TestFormat2FileIsHardError(t *testing.T) {
	near := v2BuilderState{N: 3, Cur: []float64{math.NaN(), 4.5, math.NaN()}, Dirty: true}
	old := v2Snapshot{
		Manifest: Manifest{Format: 2, ConfigHash: "cfg", WorldFingerprint: "world"},
		Barrier:  1000,
		VPs:      []v2VP{{Links: []v2Link{{Collector: v2Collector{NearB: near}}}}},
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := append(frameHeader(payload.Bytes()), payload.Bytes()...)
	if err := os.WriteFile(filepath.Join(dir, fileName(1000)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	want := Manifest{Format: Format, ConfigHash: "cfg", WorldFingerprint: "world"}
	for _, w := range []*Manifest{&want, nil} {
		snap, err := LoadLatest(dir, w)
		if err == nil {
			t.Fatalf("want=%v: Format-2 file loaded as %+v, want a hard error", w, snap)
		}
		if !strings.Contains(err.Error(), "different run") || !strings.Contains(err.Error(), "format 2") {
			t.Fatalf("want=%v: unexpected error: %v", w, err)
		}
	}
}

// v3Snapshot mirrors the Format-3 snapshot shape: builder states
// flagged Shared, and the full-resolution windows as raw float64s.
type v3BuilderState struct {
	N        int
	Shared   bool
	CurBlock []byte
}

type v3Collector struct {
	NearB, FarB       v3BuilderState
	FullNear, FullFar []float64
}

type v3Link struct{ Collector v3Collector }

type v3VP struct{ Links []v3Link }

type v3Snapshot struct {
	Manifest Manifest
	Barrier  simclock.Time
	VPs      []v3VP
	Arenas   [][]byte
}

// v4Snapshot mirrors the Format-4 snapshot shape: loss collectors
// carried a streamed rate grid, and budget taps a copy of their tuning.
type v4Loss struct {
	Batches []loss.Batch
	HasGrid bool
	Grid    tschunk.BuilderState
}

type v4Tap struct {
	BaselineAlpha, DevAlpha, Slack, Decay float64
	N                                     uint64
}

type v4BudgetLink struct {
	Tap    v4Tap
	Period uint32
}

type v4Budget struct {
	Next simclock.Time
	VPs  [][]v4BudgetLink
}

type v4Link struct{ Loss *v4Loss }

type v4VP struct{ Links []v4Link }

type v4Snapshot struct {
	Manifest Manifest
	Barrier  simclock.Time
	VPs      []v4VP
	Budget   *v4Budget
	Arenas   [][]byte
}

// v5Snapshot mirrors the Format-5 snapshot shape: each shard arena one
// slab, and a builder that owned its arena carried that slab too.
type v5BuilderState struct {
	N        int
	Arena    []byte
	CurBlock []byte
}

type v5Collector struct{ NearB, FarB v5BuilderState }

type v5Link struct{ Collector v5Collector }

type v5VP struct{ Links []v5Link }

type v5Snapshot struct {
	Manifest Manifest
	Barrier  simclock.Time
	VPs      []v5VP
	Arenas   [][]byte
}

// Files of the older formats decode into the current shape (gob skips
// the fields that are gone), so each must reach the format check and
// fail there with the Format-2 error, never restore a mismatched shape.
// A Format-5 file has no page lengths and no bytes after its gob
// message, so it splits into no pages and reaches the check as well.
func TestFormat3FileIsHardError(t *testing.T) {
	nan := math.NaN()
	olds := []struct {
		format int
		snap   any
	}{
		{3, &v3Snapshot{
			Manifest: Manifest{Format: 3, ConfigHash: "cfg", WorldFingerprint: "world"},
			Barrier:  1000,
			VPs: []v3VP{{Links: []v3Link{{Collector: v3Collector{
				NearB:    v3BuilderState{N: 3, Shared: true, CurBlock: []byte{1, 2}},
				FullNear: []float64{1.5, nan}, FullFar: []float64{nan, 2.5},
			}}}}},
			Arenas: [][]byte{{0xde, 0xad}},
		}},
		{4, &v4Snapshot{
			Manifest: Manifest{Format: 4, ConfigHash: "cfg", WorldFingerprint: "world"},
			Barrier:  1000,
			VPs: []v4VP{{Links: []v4Link{{Loss: &v4Loss{
				Batches: []loss.Batch{{Start: 1000, Sent: 100, Lost: 4}},
				HasGrid: true, Grid: openBlockState(nan, 4),
			}}}}},
			Budget: &v4Budget{Next: 2000, VPs: [][]v4BudgetLink{{{
				Tap:    v4Tap{BaselineAlpha: 0.02, DevAlpha: 0.05, Slack: 0.9, Decay: 0.99, N: 9},
				Period: 4,
			}}}},
			Arenas: [][]byte{{0xde, 0xad}},
		}},
		{5, &v5Snapshot{
			Manifest: Manifest{Format: 5, ConfigHash: "cfg", WorldFingerprint: "world"},
			Barrier:  1000,
			VPs: []v5VP{{Links: []v5Link{{Collector: v5Collector{
				NearB: v5BuilderState{N: 3, Arena: []byte{7, 8, 9}, CurBlock: []byte{1, 2}},
			}}}}},
			Arenas: [][]byte{{0xde, 0xad}, {}},
		}},
	}
	for _, old := range olds {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(old.snap); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		file := append(frameHeader(payload.Bytes()), payload.Bytes()...)
		if err := os.WriteFile(filepath.Join(dir, fileName(1000)), file, 0o644); err != nil {
			t.Fatal(err)
		}
		want := Manifest{Format: Format, ConfigHash: "cfg", WorldFingerprint: "world"}
		for _, w := range []*Manifest{&want, nil} {
			snap, err := LoadLatest(dir, w)
			if err == nil {
				t.Fatalf("want=%v: Format-%d file loaded as %+v, want a hard error", w, old.format, snap)
			}
			if !strings.Contains(err.Error(), "different run") ||
				!strings.Contains(err.Error(), fmt.Sprintf("format %d", old.format)) {
				t.Fatalf("want=%v: Format-%d file: unexpected error: %v", w, old.format, err)
			}
		}
	}
}

// TestSplitPagesBounds: the page lengths after the gob message must
// be at most a page each and split the bytes left exactly, and no
// page count allocates beyond the payload, whatever the lengths say.
func TestSplitPagesBounds(t *testing.T) {
	payload := make([]byte, 1000)
	const msgLen = 100
	cases := []struct {
		name string
		lens [][]int
		ok   bool
	}{
		{"exact", [][]int{{600, 300}, nil}, true},
		{"short", [][]int{{600, 299}}, false},
		{"long", [][]int{{600, 301}}, false},
		{"negative", [][]int{{-1, 901}}, false},
		{"over-a-page", [][]int{{tschunk.PageSize + 1, 900 - tschunk.PageSize - 1}}, false},
		{"many-empty-pages", [][]int{append(make([]int, 1000), 900)}, false},
	}
	for _, c := range cases {
		arenas, ok := splitPages(c.lens, payload, msgLen)
		if ok != c.ok {
			t.Fatalf("%s: ok=%v, want %v", c.name, ok, c.ok)
		}
		if ok && (len(arenas) != len(c.lens) || len(arenas[0][1]) != 300 || &arenas[0][1][0] != &payload[700]) {
			t.Fatalf("%s: pages not cut in place from the payload", c.name)
		}
	}
}

// TestWriteFramesPagesRaw: the file is the header, one gob message and
// then every arena page byte for byte, in order.
func TestWriteFramesPagesRaw(t *testing.T) {
	dir := t.TempDir()
	snap := snapAt(1000)
	snap.Arenas[0] = threePages
	n, err := Write(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fileName(1000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != headerLen+n {
		t.Fatalf("file holds %d bytes, want header + %d payload", len(data), n)
	}
	var pages []byte
	for _, arena := range snap.Arenas {
		for _, p := range arena {
			pages = append(pages, p...)
		}
	}
	if !bytes.HasSuffix(data, pages) {
		t.Fatal("the payload does not end with the arena pages as they stand")
	}
}

// FuzzReadSnapshot wraps arbitrary bytes in a valid header and CRC so
// they reach the gob decoder and the page splitter, which must reject
// or accept them without panicking. A crafted slice length cannot
// allocate without bound: gob caps each up-front slice allocation
// (internal/saferio, 10 MiB) and grows it only as elements actually
// decode from the input, and splitPages bounds the page count by the
// payload. The seed is a real Format-6 payload whose two short pages
// follow its gob message; a seed of full pages would spend each exec
// copying and checksumming 64 KiB pages instead of reaching the
// decoder.
func FuzzReadSnapshot(f *testing.F) {
	dir := f.TempDir()
	if _, err := Write(dir, snapAt(1000)); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, fileName(1000)))
	if err != nil {
		f.Fatal(err)
	}
	seed := file[headerLen:]
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, ok := decodeSnapshot(append(frameHeader(payload), payload...))
		if ok != (snap != nil) {
			t.Fatalf("decodeSnapshot returned ok=%v with snapshot %v", ok, snap)
		}
	})
}
