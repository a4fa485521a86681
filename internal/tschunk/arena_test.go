package tschunk

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// filler returns n bytes of a recognizable pattern.
func filler(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i)
	}
	return b
}

// refAt splits a block ref offset into its page and in-page offset.
func refAt(off int) (page, at int) { return off >> pageBits, off & (PageSize - 1) }

// TestArenaBlockExactlyFillsPage: blocks that add up to exactly a page
// all land in it, and the next block opens the next page at offset 0.
func TestArenaBlockExactlyFillsPage(t *testing.T) {
	a := NewArena(0)
	const size = 1024
	var last int
	for i := 0; i < PageSize/size; i++ {
		last = a.put(filler(size, byte(i)))
	}
	if p, at := refAt(last); p != 0 || at != PageSize-size {
		t.Fatalf("last block of a full page at page %d offset %d, want page 0 offset %d", p, at, PageSize-size)
	}
	if a.fill[0] != PageSize || len(a.pages) != 1 {
		t.Fatalf("page 0 holds %d bytes over %d pages, want %d over 1", a.fill[0], len(a.pages), PageSize)
	}
	if p, at := refAt(a.put(filler(8, 9))); p != 1 || at != 0 {
		t.Fatalf("block after a full page at page %d offset %d, want page 1 offset 0", p, at)
	}
	if st := a.State(); len(st) != 2 || len(st[0]) != PageSize || len(st[1]) != 8 {
		t.Fatalf("State page lengths %d, want [%d 8]", pageLens(st), PageSize)
	}
}

// TestArenaBlockMovesToNextPage: a block that does not fit the room
// left in a page goes whole to the next page; the short page keeps its
// bytes and its length, and nothing already sealed moves.
func TestArenaBlockMovesToNextPage(t *testing.T) {
	a := NewArena(0)
	first := filler(PageSize-10, 1)
	a.put(first)
	backing := &a.pages[0][0]
	moved := filler(20, 2)
	if p, at := refAt(a.put(moved)); p != 1 || at != 0 {
		t.Fatalf("block that does not fit at page %d offset %d, want page 1 offset 0", p, at)
	}
	if p, at := refAt(a.put(filler(10, 3))); p != 1 || at != 20 {
		t.Fatalf("next block at page %d offset %d, want page 1 offset 20", p, at)
	}
	st := a.State()
	if len(st) != 2 || !bytes.Equal(st[0], first) || !bytes.Equal(st[1][:20], moved) {
		t.Fatalf("State page lengths %v, want [%d 30] holding the sealed bytes", pageLens(st), PageSize-10)
	}
	if &a.pages[0][0] != backing {
		t.Fatal("page 0 moved when page 1 was added")
	}
	if a.Len() != PageSize+20 || a.Cap() != 2*PageSize {
		t.Fatalf("Len/Cap %d/%d, want %d/%d", a.Len(), a.Cap(), PageSize+20, 2*PageSize)
	}
}

func pageLens(pages [][]byte) []int {
	lens := make([]int, len(pages))
	for i, p := range pages {
		lens[i] = len(p)
	}
	return lens
}

// noise returns n full-entropy values: about 8 encoded bytes each.
func noise(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 + rng.Float64()
	}
	return vals
}

// TestChunkKeepsPageBacking: a chunk sealed into a shared arena keeps
// decoding the same bits, from the very page backing it was sealed
// into, while later builders add many pages (and regrow the page list).
func TestChunkKeepsPageBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewArena(0)
	early := noise(rng, 3*BlockLen+17)
	eb := NewBuilderArena(len(early), a)
	for i, v := range early {
		eb.Set(i, v)
	}
	c := eb.Seal()
	pagesAtSeal := len(a.pages)
	page0 := &a.pages[0][0]

	late := noise(rng, 5*PageSize/8)
	lb := NewBuilderArena(len(late), a)
	for i, v := range late {
		lb.Set(i, v)
	}
	lb.Seal()
	if len(a.pages) < pagesAtSeal+4 {
		t.Fatalf("later seals added %d pages, want at least 4", len(a.pages)-pagesAtSeal)
	}
	if &c.pages[0][0] != page0 || &a.pages[0][0] != page0 {
		t.Fatal("the early chunk's page backing moved")
	}
	assertRoundTrip(t, early, c)
}

// TestArenaStateAcrossPages snapshots builders whose blocks span three
// or more pages, on an owned and on a shared arena, at barriers inside
// the first, a middle and the last page: a restored builder's later
// seals land on the uninterrupted builder's refs.
func TestArenaStateAcrossPages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := noise(rng, 4*PageSize/8)
	ops := make([]writeOp, len(vals))
	for i, v := range vals {
		ops[i] = writeOp{slot: i, v: v}
	}
	for _, shared := range []bool{false, true} {
		b, _ := newStateBuilder(len(vals), shared)
		applyOps(b, ops)
		if pages := len(b.arena.State()); pages < 3 {
			t.Fatalf("shared=%v: grid spans %d pages, want at least 3", shared, pages)
		}
		for _, cut := range []int{BlockLen + 3, len(ops) / 2, len(ops) - BlockLen/2} {
			checkRestore(t, len(vals), ops, cut, shared)
		}
	}
}

// TestArenaSealAllocBound seals about 4 MB of RTT-like grids into one
// NewArena(0), builders interleaved block by block as a shard's
// collectors are. Every byte the arena allocates is a page it keeps, so
// TotalAlloc over the seals plus the pages reserved before them stays
// within the encoded bytes, one page and a small constant. A slab that
// grew by append would allocate several times the encoded bytes.
func TestArenaSealAllocBound(t *testing.T) {
	const builders, n = 256, 64 * BlockLen
	rng := rand.New(rand.NewSource(3))
	a := NewArena(0)
	bs := make([]*Builder, builders)
	for i := range bs {
		bs[i] = NewBuilderArena(n, a)
	}
	// A min-filtered RTT grid: a floor that moves now and then, with
	// short excursions; roughly 1 byte per slot.
	floors := make([]float64, builders)
	for i := range floors {
		floors[i] = 10 + float64(rng.Intn(100))
	}
	reserved := a.Cap()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for blk := 0; blk < n/BlockLen; blk++ {
		for i, b := range bs {
			for k := 0; k < BlockLen; k++ {
				v := floors[i]
				if rng.Intn(64) == 0 {
					floors[i] += float64(rng.Intn(5)-2) * 0.125
				}
				if rng.Intn(32) == 0 {
					v += float64(rng.Intn(40)) * 0.5
				}
				if rng.Intn(64) == 0 {
					v = math.NaN()
				}
				b.Set(blk*BlockLen+k, v)
			}
		}
	}
	for _, b := range bs {
		b.Seal()
	}
	runtime.ReadMemStats(&after)
	const slack = 16 << 10
	alloc := int(after.TotalAlloc-before.TotalAlloc) + reserved
	if a.Len() < 3<<20 {
		t.Fatalf("sealed only %d bytes; the bound is vacuous", a.Len())
	}
	if limit := a.Len() + PageSize + slack; alloc > limit {
		t.Fatalf("sealing %d encoded bytes allocated %d (%d reserved up front), want ≤ %d",
			a.Len(), alloc, reserved, limit)
	}
	t.Logf("encoded %d bytes, allocated %d over %d pages", a.Len(), alloc, len(a.pages))
}
