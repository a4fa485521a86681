package trafficmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
)

// BpsMemo must equal Bps in bits at every instant, whatever the memo
// last saw: over fillCase's loads (tables, constants, Funcs, nested
// Schedules) and grids across midnights, weekend edges and Epoch, read
// forward, at off-grid offsets and jumping back, with one memo shared
// between two loads read in turn.
func TestQuickBpsMemoMatchesBps(t *testing.T) {
	check := func(a, b fillCase, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m Memo
		for i := 0; i < a.N; i++ {
			c := a
			if r.Intn(3) == 0 {
				c = b
			}
			at := c.Start.Add(simclock.Duration(r.Intn(c.N+1)) * c.Step)
			if r.Intn(2) == 0 { // forward through the grid
				at = c.Start.Add(simclock.Duration(i) * c.Step)
			}
			if r.Intn(3) == 0 {
				at = at.Add(simclock.Duration(r.Int63n(int64(2 * time.Minute))))
			}
			got, want := BpsMemo(c.Load, at, &m), c.Load.Bps(at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("%s at %d: BpsMemo %v, Bps %v", c.Desc, at, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}
