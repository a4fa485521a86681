package tschunk

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// specialBits are the float64 bit patterns a checkpointed open block
// must carry exactly: NaN payloads other than the canonical Missing,
// a sign-flipped and a signalling NaN, −0, ±Inf, and a denormal.
var specialBits = []uint64{
	0x7ff8000000000001,
	0x7ff80000deadbeef,
	0xfff8000000000000,
	0x7ff0000000000001,
	math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.Inf(1)),
	math.Float64bits(math.Inf(-1)),
	1,
}

// writeOp is one builder write: Set, MergeMin or MergeMax of v at slot.
type writeOp struct {
	slot int
	v    float64
	kind int
}

func applyOps(b *Builder, ops []writeOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			b.Set(op.slot, op.v)
		case 1:
			b.MergeMin(op.slot, op.v)
		default:
			b.MergeMax(op.slot, op.v)
		}
	}
}

// newStateBuilder builds an n-slot builder on a private arena, or on a
// fresh shared Arena when shared is set.
func newStateBuilder(n int, shared bool) (*Builder, *Arena) {
	if !shared {
		return NewBuilder(n), nil
	}
	a := NewArena(0)
	return NewBuilderArena(n, a), a
}

// gobRoundTrip passes a builder state through gob, as a checkpoint
// file does.
func gobRoundTrip(t *testing.T, st BuilderState) BuilderState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var out BuilderState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// blockBytesOf returns each of c's blocks' encoded bytes.
func blockBytesOf(c *Chunk) [][]byte {
	out := make([][]byte, len(c.blocks))
	for i, ref := range c.blocks {
		out[i] = blockBytes(c.pages, ref)
	}
	return out
}

// checkRestore writes ops straight through one builder, and again
// through a second builder that is snapshotted after ops[:cut] and
// restored into a fresh third builder for the rest. The snapshotted
// builder keeps writing too, so capture must be read-side. All three
// must seal to identical chunks: the same block refs (so seals after a
// restore land where the uninterrupted run's did) over the same bytes.
func checkRestore(t *testing.T, n int, ops []writeOp, cut int, shared bool) {
	t.Helper()
	straight, _ := newStateBuilder(n, shared)
	applyOps(straight, ops)
	want := straight.Seal()

	src, srcArena := newStateBuilder(n, shared)
	applyOps(src, ops[:cut])
	st := gobRoundTrip(t, src.State())
	var pages [][]byte
	if shared {
		for _, p := range srcArena.State() {
			pages = append(pages, append([]byte(nil), p...))
		}
	}

	dst, dstArena := newStateBuilder(n, shared)
	if shared {
		dstArena.RestoreState(pages)
	}
	dst.RestoreState(st)
	applyOps(dst, ops[cut:])
	applyOps(src, ops[cut:])

	for name, got := range map[string]*Chunk{"restored": dst.Seal(), "snapshotted": src.Seal()} {
		if got.n != want.n || got.enc != want.enc || !reflect.DeepEqual(got.blocks, want.blocks) ||
			!reflect.DeepEqual(blockBytesOf(got), blockBytesOf(want)) {
			t.Fatalf("%s builder (n=%d cut=%d/%d shared=%v) sealed a different chunk:\n"+
				"got  enc=%d blocks=%v\nwant enc=%d blocks=%v",
				name, n, cut, len(ops), shared, got.enc, got.blocks, want.enc, want.blocks)
		}
	}
}

// TestBuilderStateRoundTripCases pins the open-block shapes a barrier
// can catch: untouched, all-NaN after writes, half-filled, the short
// last block, and every special bit pattern in the open block.
func TestBuilderStateRoundTripCases(t *testing.T) {
	var specials []writeOp
	for i, bits := range specialBits {
		specials = append(specials, writeOp{slot: BlockLen + 3*i, v: math.Float64frombits(bits)})
	}
	halfFilled := []writeOp{{slot: 5, v: 2.5}}
	for i := 0; i < BlockLen/2; i++ {
		halfFilled = append(halfFilled, writeOp{slot: BlockLen + i, v: 3 + float64(i%5)*0.125, kind: 1})
	}
	short := 2*BlockLen + 37
	cases := []struct {
		name string
		n    int
		ops  []writeOp
		cut  int
	}{
		{"untouched", 3 * BlockLen, []writeOp{{slot: 7, v: 1.5}}, 0},
		{"all-nan-open-block", 3 * BlockLen, []writeOp{
			{slot: 1, v: 4},
			{slot: BlockLen + 2, v: Missing},
			{slot: BlockLen + 9, v: math.Float64frombits(0x7ff8000000000001)},
			{slot: 2*BlockLen + 1, v: 6},
		}, 3},
		{"half-filled", 3 * BlockLen, append(halfFilled, writeOp{slot: 2 * BlockLen, v: 9}), len(halfFilled)},
		{"short-last-block", short, []writeOp{
			{slot: 0, v: 1},
			{slot: 2*BlockLen + 4, v: math.Copysign(0, -1)},
			{slot: 2*BlockLen + 20, v: math.Inf(1)},
			{slot: short - 1, v: 7.25},
		}, 3},
		{"special-bits", 3 * BlockLen, append(specials, writeOp{slot: 2*BlockLen + 1, v: 1}), len(specials)},
	}
	for _, c := range cases {
		for _, shared := range []bool{false, true} {
			checkRestore(t, c.n, c.ops, c.cut, shared)
		}
	}
}

// TestBuilderStateRoundTripProperty checks the round-trip on random
// grids: random lengths (short last blocks included), block-forward
// writes of ordinary values and special bit patterns through all
// three write kinds, and a random barrier among them. One grid in
// eight is long and dense with full-entropy values, so its blocks span
// three to six arena pages and the barrier can fall on any of them.
func TestBuilderStateRoundTripProperty(t *testing.T) {
	prop := func(seed int64, shared bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var n int
		var ops []writeOp
		if rng.Intn(8) == 0 {
			// ~8 encoded bytes per slot: 24k–48k slots fill 3–6 pages.
			n = 3*PageSize/8 + rng.Intn(3*PageSize/8)
			ops = make([]writeOp, n)
			for i := range ops {
				ops[i] = writeOp{slot: i, v: 1 + rng.Float64(), kind: rng.Intn(3)}
			}
		} else {
			n = 1 + rng.Intn(4*BlockLen)
			ops = make([]writeOp, rng.Intn(3*BlockLen))
			for i := range ops {
				v := 1 + float64(rng.Intn(64))*0.25
				if rng.Intn(4) == 0 {
					v = math.Float64frombits(specialBits[rng.Intn(len(specialBits))])
				}
				ops[i] = writeOp{slot: rng.Intn(n), v: v, kind: rng.Intn(3)}
			}
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].slot < ops[j].slot })
		}
		checkRestore(t, n, ops, rng.Intn(len(ops)+1), shared)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBlockTotal feeds the decoder damaged streams, among them
// a window reuse ('10') before any window was opened: decoding must
// terminate without panicking whatever the bytes.
func TestDecodeBlockTotal(t *testing.T) {
	dst := make([]float64, BlockLen)
	inputs := [][]byte{
		nil,
		{0, 0, 0, 0, 0, 0, 0, 0, 0x80},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		inputs = append(inputs, junk)
	}
	for _, in := range inputs {
		decodeBlock(in, dst)
	}
}
