package tschunk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildChunk round-trips vals through a Builder using Set.
func buildChunk(t testing.TB, vals []float64) *Chunk {
	t.Helper()
	b := NewBuilder(len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			b.Set(i, v)
		}
	}
	return b.Seal()
}

// decodeAll decodes every block of c into one slice.
func decodeAll(c *Chunk) []float64 {
	out := make([]float64, 0, c.Len())
	var buf [BlockLen]float64
	for blk := 0; blk < c.NumBlocks(); blk++ {
		out = append(out, c.DecodeBlock(blk, buf[:0])...)
	}
	return out
}

// assertBits checks got against want bit for bit.
func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: slot %d: got bits %016x, want %016x",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// assertRoundTrip checks bit-exact recovery through block decoding.
func assertRoundTrip(t *testing.T, vals []float64, c *Chunk) {
	t.Helper()
	if c.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(vals))
	}
	assertBits(t, "DecodeBlock", decodeAll(c), vals)
}

func TestChunkRoundTripBasic(t *testing.T) {
	cases := map[string][]float64{
		"empty":       {},
		"single":      {3.25},
		"repeat":      {7.5, 7.5, 7.5, 7.5},
		"all-missing": {math.NaN(), math.NaN(), math.NaN()},
		"specials": {
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.NaN(), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat64, -math.MaxFloat64, 1e-310, // denormal
		},
		"mixed": {1.5, math.NaN(), 2.9371052631578947, 2.9371052631578947,
			math.NaN(), math.NaN(), 88.125, -3},
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			assertRoundTrip(t, vals, buildChunk(t, vals))
		})
	}
}

func TestChunkMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 3*BlockLen + 57 // three full blocks plus a tail
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(4) {
		case 0:
			vals[i] = math.NaN()
		case 1:
			vals[i] = 2.9371052631578947 // repeated floor
		default:
			vals[i] = 5 + rng.Float64()*100
		}
	}
	assertRoundTrip(t, vals, buildChunk(t, vals))
}

func TestBuilderMergeSemantics(t *testing.T) {
	b := NewBuilder(4)
	b.MergeMin(0, 5)
	b.MergeMin(0, 7) // larger: ignored
	b.MergeMin(0, 3) // smaller: wins
	b.MergeMax(1, 5)
	b.MergeMax(1, 3) // smaller: ignored
	b.MergeMax(1, 7) // larger: wins
	b.Set(2, 9)
	b.Set(2, 1) // Set overwrites
	assertBits(t, "merged", decodeAll(b.Seal()), []float64{3, 7, 1, Missing})
}

// TestBuilderCopyRange reads ranges that start and end on block edges,
// inside blocks and at the write frontier, before Seal (across sealed,
// open and not-yet-reached blocks) and after it.
func TestBuilderCopyRange(t *testing.T) {
	n := 3*BlockLen + 10
	frontier := BlockLen + 40 // block 0 sealed, block 1 open, 2 and 3 unreached
	want := make([]float64, n)
	b := NewBuilder(n)
	rng := rand.New(rand.NewSource(3))
	for i := range want {
		want[i] = Missing
		if i < frontier && rng.Intn(3) > 0 {
			want[i] = rng.Float64() * 50
			b.Set(i, want[i])
		}
	}
	edges := []int{0, 1, BlockLen - 1, BlockLen, frontier - 1, frontier, 2 * BlockLen, 3*BlockLen + 3, n}
	check := func(stage string) {
		for _, from := range edges {
			for _, to := range edges {
				if to < from {
					continue
				}
				dst := make([]float64, to-from)
				for k := range dst {
					dst[k] = -1 // every slot must be overwritten
				}
				b.CopyRange(from, dst)
				assertBits(t, fmt.Sprintf("%s [%d,%d)", stage, from, to), dst, want[from:to])
			}
		}
	}
	check("open")
	b.Seal()
	check("sealed")
}

func TestBuilderOutOfOrderPanics(t *testing.T) {
	b := NewBuilder(3 * BlockLen)
	b.Set(BlockLen+1, 1) // seals block 0
	defer func() {
		if recover() == nil {
			t.Fatalf("write into sealed block did not panic")
		}
	}()
	b.Set(0, 2)
}

func TestBuilderSealIdempotentAndWriteAfterSealPanics(t *testing.T) {
	b := NewBuilder(8)
	b.Set(0, 1)
	c1 := b.Seal()
	c2 := b.Seal()
	if c1 != c2 {
		t.Fatalf("Seal not idempotent")
	}
	// Slot 1 sits in the block that was open at Seal, which MergeMin's
	// open-block path must not write either.
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"Set", func() { b.Set(1, 2) }},
		{"MergeMin", func() { b.MergeMin(1, 2) }},
		{"MergeMax", func() { b.MergeMax(1, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Seal did not panic", w.name)
				}
			}()
			w.write()
		}()
	}
}

// TestSharedMissingBlocks checks that long pre-discovery gaps cost a
// few bytes total: full all-missing blocks share one arena range.
func TestSharedMissingBlocks(t *testing.T) {
	n := 40 * BlockLen
	b := NewBuilder(n)
	b.Set(n-1, 3.5) // 39 all-missing blocks seal on the way
	c := b.Seal()
	if c.EncodedSize() > 256 {
		t.Fatalf("40-block sparse grid encoded to %d bytes; missing-block sharing broken", c.EncodedSize())
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = Missing
	}
	want[n-1] = 3.5
	assertRoundTrip(t, want, c)
}

// TestBuilderNoAllocSteadyState pins the per-sample write path and the
// pre-reserved seal path at zero allocations — the campaign's
// quiescent probe step depends on it.
func TestBuilderNoAllocSteadyState(t *testing.T) {
	n := 4 * BlockLen
	b := NewBuilder(n)
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		if i < n {
			b.MergeMin(i, 5.25+float64(i%7))
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeMin allocates %v/op, want 0", allocs)
	}
}

func TestCompressionOnTypicalGrid(t *testing.T) {
	// A plausible collector series: long missing prefix, then a stable
	// floor with diurnal excursions.
	n := 4 * BlockLen
	vals := make([]float64, n)
	for i := range vals {
		switch {
		case i < n/4:
			vals[i] = math.NaN()
		case (i/48)%2 == 0:
			vals[i] = 2.9371052631578947
		default:
			vals[i] = 2.9371052631578947 + float64(i%48)*0.25
		}
	}
	c := buildChunk(t, vals)
	if ratio := float64(c.RawSize()) / float64(c.EncodedSize()); ratio < 2 {
		t.Fatalf("compression ratio %.2f on a typical grid, want ≥ 2", ratio)
	}
	assertRoundTrip(t, vals, c)
}

// FuzzChunkRoundTrip feeds arbitrary byte strings reinterpreted as
// float64 bit patterns — every NaN payload, infinity, denormal, and
// signed zero included — and requires bit-identical recovery.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	seed := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-310, 2.9371,
	}
	var sb []byte
	for _, v := range seed {
		bits := math.Float64bits(v)
		for s := 56; s >= 0; s -= 8 {
			sb = append(sb, byte(bits>>uint(s)))
		}
	}
	f.Add(sb)
	// A quiet-NaN with a payload must survive even though the grid
	// treats every NaN as missing.
	f.Add([]byte{0x7f, 0xf8, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x40, 0x45, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 4*BlockLen {
			n = 4 * BlockLen
		}
		vals := make([]float64, n)
		for i := range vals {
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(data[i*8+k])
			}
			vals[i] = math.Float64frombits(bits)
		}
		// Set unconditionally: arbitrary NaN payloads must round-trip
		// through the codec even though they read back as missing.
		b := NewBuilder(n)
		for i, v := range vals {
			b.Set(i, v)
		}
		c := b.Seal()
		var buf [BlockLen]float64
		for blk := 0; blk < c.NumBlocks(); blk++ {
			got := c.DecodeBlock(blk, buf[:0])
			base := c.BlockBase(blk)
			for k, v := range got {
				if math.Float64bits(v) != math.Float64bits(vals[base+k]) {
					t.Fatalf("slot %d: got %016x, want %016x",
						base+k, math.Float64bits(v), math.Float64bits(vals[base+k]))
				}
			}
		}
		if raw := c.RawSize(); raw != 8*n {
			t.Fatalf("RawSize = %d, want %d", raw, 8*n)
		}
	})
}
