// Package tschunk is the columnar, compressed backing store for the
// regular-grid time series the campaign engine collects. A series is a
// fixed grid of float64 samples (NaN marks missing); tschunk splits the
// grid into fixed-size immutable blocks and XOR-packs each block
// Gorilla-style (Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory
// Time Series Database"). Timestamps are never stored: the grid is
// regular, so the delta-of-delta stream every Gorilla implementation
// carries degenerates to a constant and the slot index *is* the
// timestamp (see DESIGN.md §12).
//
// The write path is an append-only Builder: samples land in a raw
// in-place block (the campaign's streaming min/max filters re-touch the
// current bin many times), and a block is compressed exactly once, when
// the write frontier passes it, into an Arena: a list of fixed 64 KiB
// pages the builder owns, or one the campaign engine shares among a
// shard's builders. A sealed block never moves — a full page is
// followed by a fresh one, never grown or copied — so sealing into
// pre-reserved pages keeps the steady-state probing step
// allocation-free, and a checkpoint writes the pages as they stand.
// The read path decodes
// one block at a time into caller-owned buffers, so an analysis pass
// streams a year-long series through a few kilobytes of scratch instead
// of materializing it.
package tschunk

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// BlockLen is the number of grid slots per block. 256 slots cover ~2h
// of native 5-minute samples per few blocks while keeping the decode
// scratch (2 KiB) comfortably stack-sized; larger blocks amortize the
// 8-byte raw first value better but make a read of a few slots
// (Builder.CopyRange) decode more.
const BlockLen = 256

// Missing is the in-band missing marker (IEEE NaN). Any NaN bit
// pattern round-trips through the codec unchanged; this is the
// canonical one the grid is initialized with.
var Missing = math.NaN()

// PageSize is the size of an arena page. A block ref addresses its
// page and offset in one int (page<<pageBits | offset), so the page
// size is fixed: it is a constant, not an option.
const PageSize = 1 << pageBits

const pageBits = 16

// blockRef locates one sealed block inside the arena. Blocks can share
// arena ranges: every all-missing block of full length points at the
// same few bytes.
type blockRef struct {
	off, size int // page<<pageBits | offset in the page, and byte length
	count     int // values encoded (BlockLen except the tail)
}

// blockBytes returns the encoded bytes ref names in pages.
func blockBytes(pages [][]byte, ref blockRef) []byte {
	o := ref.off & (PageSize - 1)
	return pages[ref.off>>pageBits][o : o+ref.size]
}

// Chunk is a sealed, immutable compressed series: every block
// XOR-packed into its arena's pages. The page list is the arena's as
// of the seal; later pages never hold the chunk's blocks, and earlier
// pages never move, so the chunk and the still-growing arena share
// them safely. Chunks are safe for concurrent readers.
type Chunk struct {
	n      int
	pages  [][]byte
	blocks []blockRef
	// enc is the chunk's own encoded payload (shared all-missing
	// blocks counted once); the arena may hold other builders' blocks.
	enc int
}

// Len returns the number of grid slots.
func (c *Chunk) Len() int { return c.n }

// NumBlocks returns the number of blocks.
func (c *Chunk) NumBlocks() int { return len(c.blocks) }

// BlockBase returns the grid slot of block b's first value.
func (c *Chunk) BlockBase(b int) int { return b * BlockLen }

// EncodedSize returns the compressed payload size in bytes. Shared
// all-missing blocks are counted once, matching resident memory.
func (c *Chunk) EncodedSize() int { return c.enc }

// RawSize returns the size the same grid occupies as flat []float64.
func (c *Chunk) RawSize() int { return 8 * c.n }

// DecodeBlock decodes block b into dst (sliced to the block's value
// count) and returns it. dst must have capacity ≥ BlockLen; pass the
// same buffer across calls for allocation-free streaming.
func (c *Chunk) DecodeBlock(b int, dst []float64) []float64 {
	ref := c.blocks[b]
	dst = dst[:ref.count]
	decodeBlock(blockBytes(c.pages, ref), dst)
	return dst
}

// Builder accumulates a fixed-length grid and compresses it block by
// block as the write frontier advances. Writes must be grid-ordered at
// block granularity: once a later block is touched, earlier blocks are
// sealed and immutable (the campaign's collectors write strictly
// forward in virtual time). Within the current block, slots may be
// set, min-merged, and max-merged freely — the streaming filters
// re-touch a bin once per probing round.
//
// Sealed blocks land in the builder's Arena. Construction reserves
// arena room for the grid, so the per-sample write path never
// allocates; a seal allocates only when the reserved pages are full
// (it then adds one page). Not safe for concurrent use.
type Builder struct {
	n      int
	blocks []blockRef
	arena  *Arena
	// own marks an arena made for this builder alone: its bytes are
	// part of the builder's State. An engine-owned arena is captured
	// once by its owner (Arena.State).
	own    bool
	cur    []float64 // raw current block, NaN-initialized
	curBlk int       // block index cur covers
	encLen int       // own encoded bytes (shared NaN block counted once)
	nanRef blockRef  // shared encoding of a full all-missing block
	hasNaN bool
	dirty  bool // cur has at least one non-missing write
	sealed *Chunk
}

// Arena is an append-only list of fixed-size pages Builders seal
// into: one per standalone builder, or one per campaign shard, so a
// shard's resident series bytes are a few accountable allocations
// instead of thousands of per-link slices. A sealed block goes into
// the current page, or into the next page when it does not fit, so
// block placement depends only on the order of seals, and a block's
// bytes never move once sealed. Single-writer: all Builders on one
// Arena must seal from the same goroutine at any instant (the shard's
// worker), which also lets them share one worst-case encode scratch
// buffer.
type Arena struct {
	// pages are allocated at full length and never resized; those past
	// cur are reserved but empty.
	pages [][]byte
	fill  []int // bytes sealed into each page
	cur   int   // the page seals go into
	// behind is the capacity of the pages before cur, capacity that of
	// them all, and sealed the bytes sealed in them all.
	behind, capacity, sealed int
	scratch                  []byte
}

// NewArena pre-reserves capBytes as whole pages.
func NewArena(capBytes int) *Arena {
	a := &Arena{scratch: make([]byte, 0, MaxBlockBytes)}
	a.Reserve(capBytes)
	return a
}

// newOwnedArena is the arena of one standalone builder. Its first page
// is sized to the builder's reservation when that is under a page, so
// a short series costs no more than its reserve.
func newOwnedArena(capBytes int) *Arena {
	if capBytes >= PageSize {
		return NewArena(capBytes)
	}
	a := NewArena(0)
	a.addPage(capBytes)
	return a
}

// addPage appends one empty page of size bytes.
func (a *Arena) addPage(size int) {
	a.pages = append(a.pages, make([]byte, size))
	a.fill = append(a.fill, 0)
	a.capacity += size
}

// Reserve pre-allocates whole pages until at least bytes more fit
// beyond the bytes already sealed. The top-up is against the used
// length, not against earlier reservations, so builders made before a
// seal share one reservation; once the reserved pages fill up, a seal
// adds one page at a time.
func (a *Arena) Reserve(bytes int) {
	used := a.behind
	if a.cur < len(a.pages) {
		used += a.fill[a.cur]
	}
	for a.capacity-used < bytes {
		a.addPage(PageSize)
	}
}

// put copies one encoded block into the arena and returns its ref
// offset.
func (a *Arena) put(enc []byte) int {
	if a.cur < len(a.pages) && a.fill[a.cur]+len(enc) > len(a.pages[a.cur]) {
		a.behind += len(a.pages[a.cur])
		a.cur++
	}
	if a.cur == len(a.pages) {
		a.addPage(PageSize)
	}
	off := a.fill[a.cur]
	copy(a.pages[a.cur][off:], enc)
	a.fill[a.cur] += len(enc)
	a.sealed += len(enc)
	return a.cur<<pageBits | off
}

// Len returns the encoded bytes resident in the pages.
func (a *Arena) Len() int { return a.sealed }

// Cap returns the allocated page capacity.
func (a *Arena) Cap() int { return a.capacity }

// MemBytes is the arena's resident footprint: page capacity plus the
// shared encode scratch.
func (a *Arena) MemBytes() int { return a.capacity + cap(a.scratch) }

// MaxBlockBytes bounds one encoded block: 8 raw bytes for the first
// value, then ≤ 2+5+6+64 bits per value, plus byte-alignment slack.
// Any block fits an empty full page.
const MaxBlockBytes = 8 + (BlockLen*77)/8 + 2

// NewBuilder sizes a builder for an n-slot grid on an arena of its
// own, reserving ~4 bytes per slot — comfortably above what
// min-filtered RTT grids encode to (long missing runs cost one bit per
// slot, repeated floors one bit, moving values a few bytes).
func NewBuilder(n int) *Builder { return NewBuilderArena(n, nil) }

// NewBuilderArena is NewBuilder sealing into a (typically shared)
// Arena: the builder reserves its ~4 bytes/slot in the pages and
// borrows the arena's encode scratch. a == nil gives the builder an
// arena of its own.
func NewBuilderArena(n int, a *Arena) *Builder {
	if n < 0 {
		panic("tschunk: negative grid length")
	}
	b := &Builder{n: n, blocks: make([]blockRef, 0, (n+BlockLen-1)/BlockLen)}
	if a == nil {
		a, b.own = newOwnedArena(4*n+16), true
	}
	a.Reserve(4*n + 16)
	b.arena = a
	b.resetCur(0)
	return b
}

// Len returns the grid length.
func (b *Builder) Len() int { return b.n }

// MemBytes is the builder's resident footprint beyond its arena: the
// raw current block. Encoded bytes live in (and are accounted by) the
// Arena.
func (b *Builder) MemBytes() int { return 8 * cap(b.cur) }

func (b *Builder) resetCur(blk int) {
	b.curBlk = blk
	lo := blk * BlockLen
	count := b.n - lo
	if count > BlockLen {
		count = BlockLen
	}
	if count < 0 {
		count = 0
	}
	if b.cur == nil {
		b.cur = make([]float64, BlockLen)
	}
	b.cur = b.cur[:count]
	for i := range b.cur {
		b.cur[i] = Missing
	}
	b.dirty = false
}

// advanceTo seals blocks until the current block covers slot i.
func (b *Builder) advanceTo(i int) {
	if b.sealed != nil {
		panic("tschunk: write after Seal")
	}
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("tschunk: slot %d out of range [0,%d)", i, b.n))
	}
	blk := i / BlockLen
	if blk < b.curBlk {
		panic(fmt.Sprintf("tschunk: out-of-order write: slot %d is in sealed block %d (current %d)",
			i, blk, b.curBlk))
	}
	for blk > b.curBlk {
		b.sealCur()
		b.resetCur(b.curBlk + 1)
	}
}

// sealCur compresses the current block into the arena. Full-length
// all-missing blocks (pre-discovery gaps, VP outages spanning blocks)
// are encoded once and shared.
func (b *Builder) sealCur() {
	if !b.dirty && len(b.cur) == BlockLen {
		if !b.hasNaN {
			b.nanRef = b.appendEncoded(b.cur)
			b.hasNaN = true
		}
		ref := b.nanRef
		b.blocks = append(b.blocks, ref)
		return
	}
	b.blocks = append(b.blocks, b.appendEncoded(b.cur))
}

func (b *Builder) appendEncoded(vals []float64) blockRef {
	enc := encodeBlock(vals, b.arena.scratch[:0])
	b.encLen += len(enc)
	return blockRef{off: b.arena.put(enc), size: len(enc), count: len(vals)}
}

// Set overwrites slot i.
func (b *Builder) Set(i int, v float64) {
	b.advanceTo(i)
	b.cur[i-b.curBlk*BlockLen] = v
	b.dirty = true
}

// MergeMin sets slot i to v if the slot is missing or v is smaller —
// the TSLP streaming minimum filter.
func (b *Builder) MergeMin(i int, v float64) {
	if j := uint(i - b.curBlk*BlockLen); j < uint(len(b.cur)) && b.sealed == nil {
		// Inside the open block: advanceTo would do nothing.
		if slot := &b.cur[j]; math.IsNaN(*slot) || v < *slot {
			*slot = v
			b.dirty = true
		}
		return
	}
	b.advanceTo(i)
	slot := &b.cur[i-b.curBlk*BlockLen]
	if math.IsNaN(*slot) || v < *slot {
		*slot = v
		b.dirty = true
	}
}

// MergeMax sets slot i to v if the slot is missing or v is larger —
// the loss-grid merge (worst batch rate per slot).
func (b *Builder) MergeMax(i int, v float64) {
	b.advanceTo(i)
	slot := &b.cur[i-b.curBlk*BlockLen]
	if math.IsNaN(*slot) || v > *slot {
		*slot = v
		b.dirty = true
	}
}

// CopyRange copies slots [from, from+len(dst)) into dst without
// disturbing the write frontier: sealed blocks decode through a stack
// scratch, the open block is read raw, and slots the frontier has not
// reached yet come back Missing. This is the streaming observatory's
// read path over finalized bins at batch barriers — strictly read-side
// (the builder keeps compressing exactly as if the read never
// happened) and allocation-free. Works before and after Seal.
func (b *Builder) CopyRange(from int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	to := from + len(dst)
	if from < 0 || to > b.n {
		panic(fmt.Sprintf("tschunk: range [%d,%d) out of [0,%d)", from, to, b.n))
	}
	var buf [BlockLen]float64
	for i := from; i < to; {
		blk := i / BlockLen
		lo := blk * BlockLen
		hi := lo + BlockLen
		if hi > b.n {
			hi = b.n
		}
		j := to
		if hi < j {
			j = hi
		}
		switch {
		case b.sealed != nil:
			vals := b.sealed.DecodeBlock(blk, buf[:0])
			copy(dst[i-from:j-from], vals[i-lo:])
		case blk > b.curBlk:
			for k := i; k < j; k++ {
				dst[k-from] = Missing
			}
		case blk == b.curBlk:
			copy(dst[i-from:j-from], b.cur[i-lo:])
		default:
			ref := b.blocks[blk]
			vals := buf[:ref.count]
			decodeBlock(blockBytes(b.arena.pages, ref), vals)
			copy(dst[i-from:j-from], vals[i-lo:])
		}
		i = j
	}
}

// Seal compresses the remaining blocks and returns the immutable
// chunk. Idempotent; writes after Seal panic.
func (b *Builder) Seal() *Chunk {
	if b.sealed != nil {
		return b.sealed
	}
	if b.n > 0 {
		last := (b.n - 1) / BlockLen
		for {
			b.sealCur()
			if b.curBlk == last {
				break
			}
			b.resetCur(b.curBlk + 1)
		}
	}
	b.sealed = &Chunk{n: b.n, pages: b.arena.pages, blocks: b.blocks, enc: b.encLen}
	return b.sealed
}

// ---------------------------------------------------------------
// Checkpoint state: the engine snapshots builders and arenas at batch
// barriers (DESIGN.md §15). A snapshot captures exactly the mutable
// write-side state — sealed block refs, the open current block, and
// (for a builder that owns its arena) the arena pages — so a restored
// builder continues the stream bit-identically.
// ---------------------------------------------------------------

// BlockRef is the exported mirror of blockRef for serialization.
type BlockRef struct {
	Off, Size, Count int
}

// BuilderState is a Builder's full mutable state at a barrier. Pages
// holds the arena pages of a builder that owns its arena; a builder on
// an engine-owned arena leaves it empty, since the engine captures
// those pages once (Arena.State).
//
// CurBlock is the open current block packed with the block codec
// itself, which is exact on bit patterns: the mostly-missing block
// costs a few dozen bytes instead of 2 KiB of float64s. Its value
// count is implied by N and CurBlk.
type BuilderState struct {
	N        int
	Blocks   []BlockRef
	Pages    [][]byte
	EncLen   int
	HasNaN   bool
	NaNRef   BlockRef
	CurBlk   int
	CurBlock []byte
	Dirty    bool
}

// State captures the builder's write-side state. Pages alias the live
// pages of an owned arena: callers must serialize (or copy) the state
// before the next write, which barrier-synchronous checkpointing
// guarantees. Packing the current block borrows the arena's encode
// scratch, so State follows the arena's single-writer rule like a seal
// does. Panics after Seal — sealed builders are immutable and cheaper
// to rebuild than to snapshot.
func (b *Builder) State() BuilderState {
	if b.sealed != nil {
		panic("tschunk: State after Seal")
	}
	st := BuilderState{
		N:      b.n,
		Blocks: make([]BlockRef, len(b.blocks)),
		EncLen: b.encLen,
		HasNaN: b.hasNaN,
		NaNRef: BlockRef{Off: b.nanRef.off, Size: b.nanRef.size, Count: b.nanRef.count},
		CurBlk: b.curBlk,
		Dirty:  b.dirty,
	}
	st.CurBlock = append([]byte(nil), encodeBlock(b.cur, b.arena.scratch[:0])...)
	for i, ref := range b.blocks {
		st.Blocks[i] = BlockRef{Off: ref.off, Size: ref.size, Count: ref.count}
	}
	if b.own {
		st.Pages = b.arena.State()
	}
	return st
}

// RestoreState overwrites the builder's write-side state from a
// snapshot taken at the same barrier of an equivalent run. The builder
// must have been freshly constructed with the same grid length, and on
// an arena of the same kind: its own, or a shared one whose pages are
// restored separately (Arena.RestoreState).
func (b *Builder) RestoreState(st BuilderState) {
	if b.sealed != nil {
		panic("tschunk: RestoreState after Seal")
	}
	if st.N != b.n {
		panic(fmt.Sprintf("tschunk: RestoreState grid length %d, builder has %d", st.N, b.n))
	}
	b.blocks = b.blocks[:0]
	for _, ref := range st.Blocks {
		b.blocks = append(b.blocks, blockRef{off: ref.Off, size: ref.Size, count: ref.Count})
	}
	if b.own {
		b.arena.RestoreState(st.Pages)
	}
	b.encLen = st.EncLen
	b.hasNaN = st.HasNaN
	b.nanRef = blockRef{off: st.NaNRef.Off, size: st.NaNRef.Size, count: st.NaNRef.Count}
	b.resetCur(st.CurBlk)
	decodeBlock(st.CurBlock, b.cur)
	b.dirty = st.Dirty
}

// State returns the arena's pages as they stand: every page up to the
// current one, each sliced to its sealed bytes, and nil before the
// first seal. The pages alias the live arena; serialize them before
// the next seal into it.
func (a *Arena) State() [][]byte {
	if a.sealed == 0 {
		return nil
	}
	pages := make([][]byte, a.cur+1)
	for i := range pages {
		pages[i] = a.pages[i][:a.fill[i]:a.fill[i]]
	}
	return pages
}

// RestoreState overwrites the arena's contents from a snapshot of an
// equivalent arena (State). Each page is copied into the arena's own
// page of that index when it has one — so reservations made by builders
// constructed before the restore remain honored, and an owned arena
// keeps its first page's size — or else into a fresh full page, so
// seals after the restore land on the refs they would have had.
func (a *Arena) RestoreState(pages [][]byte) {
	for len(a.pages) < len(pages) {
		a.addPage(PageSize)
	}
	for i := range a.fill {
		a.fill[i] = 0
	}
	a.cur, a.behind, a.sealed = 0, 0, 0
	for i, p := range pages {
		if len(p) > len(a.pages[i]) {
			panic(fmt.Sprintf("tschunk: RestoreState page %d holds %d bytes, arena page has %d",
				i, len(p), len(a.pages[i])))
		}
		a.fill[i] = copy(a.pages[i], p)
		a.sealed += len(p)
	}
	if len(pages) > 0 {
		a.cur = len(pages) - 1
	}
	for _, p := range a.pages[:a.cur] {
		a.behind += len(p)
	}
}

// ---------------------------------------------------------------
// Codec: Gorilla XOR float packing, one independent stream per block.
// ---------------------------------------------------------------
//
// The first value is stored raw (64 bits). Each subsequent value is
// XORed with its predecessor's bit pattern:
//
//	xor == 0            → '0'
//	fits prior window   → '10' + meaningful bits (window width)
//	new window          → '11' + 5b leading zeros (clamped to 31)
//	                           + 6b (significant bits − 1)
//	                           + significant bits
//
// Operating on bit patterns makes the codec exactly lossless: every
// NaN payload, ±Inf, negative zero, and denormal round-trips
// bit-identically, which the missing-marker encoding and the repo's
// bit-identity invariant both depend on.

type bitWriter struct {
	buf  []byte
	acc  uint64
	nacc uint // bits pending in acc (MSB-aligned count)
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	free := 64 - w.nacc // ≥ 1: a full accumulator is flushed at once
	if n < free {
		w.acc |= v << (free - n)
		w.nacc += n
		return
	}
	// Top up the accumulator, flush its 64 bits as one word, and keep
	// v's low rest bits MSB-aligned.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>rest)
	w.acc, w.nacc = 0, rest
	if rest > 0 {
		w.acc = v << (64 - rest)
	}
}

func (w *bitWriter) flushAcc() {
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
		w.nacc -= 8
	}
}

func (w *bitWriter) finish() []byte {
	w.flushAcc()
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc, w.nacc = 0, 0
	}
	return w.buf
}

type bitReader struct {
	buf  []byte
	pos  int // next byte
	acc  uint64
	nacc uint // valid low bits in acc (≤ 8)
}

func (r *bitReader) readBits(n uint) uint64 {
	var v uint64
	for n > 0 {
		if r.nacc == 0 {
			var next byte
			if r.pos < len(r.buf) {
				next = r.buf[r.pos]
				r.pos++
			}
			r.acc = uint64(next)
			r.nacc = 8
		}
		take := n
		if take > r.nacc {
			take = r.nacc
		}
		v = (v << take) | ((r.acc >> (r.nacc - take)) & onesMask(take))
		r.nacc -= take
		n -= take
	}
	return v
}

func onesMask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// encodeBlock packs vals into dst (appended) and returns it.
func encodeBlock(vals []float64, dst []byte) []byte {
	if len(vals) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	leading, trailing := uint(65), uint(0) // 65: no window established
	for i := 1; i < len(vals); i++ {
		cur := math.Float64bits(vals[i])
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			// A run of repeats — missing stretches, a flat floor — is
			// one '0' bit per value; write the run 64 bits at a time.
			run := uint(1)
			for i+1 < len(vals) && math.Float64bits(vals[i+1]) == prev {
				i++
				run++
			}
			for ; run > 64; run -= 64 {
				w.writeBits(0, 64)
			}
			w.writeBits(0, run)
			continue
		}
		lz := uint(bits.LeadingZeros64(xor))
		if lz > 31 {
			lz = 31
		}
		tz := uint(bits.TrailingZeros64(xor))
		if leading <= 64 && lz >= leading && tz >= trailing {
			// Meaningful bits fit the established window.
			w.writeBits(0b10, 2)
			w.writeBits(xor>>trailing, 64-leading-trailing)
			continue
		}
		sig := 64 - lz - tz
		w.writeBits(0b11, 2)
		w.writeBits(uint64(lz), 5)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>tz, sig)
		leading, trailing = lz, tz
	}
	return w.finish()
}

// decodeBlock unpacks exactly len(dst) values from data. It is total
// on arbitrary bytes — reads past the end yield zero bits — so a
// damaged block decodes to wrong values but never hangs or panics.
func decodeBlock(data []byte, dst []float64) {
	if len(dst) == 0 {
		return
	}
	r := bitReader{buf: data}
	prev := r.readBits(64)
	dst[0] = math.Float64frombits(prev)
	// A valid stream opens a window ('11') before reusing one ('10'),
	// so the initial window is never read from well-formed input. It is
	// the empty one rather than the encoder's 65 sentinel: 64-65 would
	// wrap to a 2^64-bit read on a stray '10'.
	leading, trailing := uint(64), uint(0)
	for i := 1; i < len(dst); i++ {
		if r.readBits(1) == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		var xor uint64
		if r.readBits(1) == 0 {
			xor = r.readBits(64-leading-trailing) << trailing
		} else {
			lz := uint(r.readBits(5))
			sig := uint(r.readBits(6)) + 1
			xor = r.readBits(sig) << (64 - lz - sig)
			leading, trailing = lz, 64-lz-sig
		}
		prev ^= xor
		dst[i] = math.Float64frombits(prev)
	}
}
