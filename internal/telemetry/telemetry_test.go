package telemetry

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afrixp/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	c.Store(42)
	if got := c.Load(); got != 42 {
		t.Errorf("after Store, counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	if got := h.NumBuckets(); got != 4 {
		t.Fatalf("NumBuckets = %d, want 4 (3 bounds + overflow)", got)
	}
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 2, 1, 1} // ≤1: {0.5,1}; ≤10: {5,10}; ≤100: {50}; over: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Total != 6 {
		t.Errorf("total = %d, want 6", s.Total)
	}
	h.StoreBucket(0, 99)
	if got := h.snapshot().Counts[0]; got != 99 {
		t.Errorf("after StoreBucket, bucket 0 = %d, want 99", got)
	}
}

func TestHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram accepted non-ascending bounds")
		}
	}()
	NewHistogram(1, 1)
}

// TestNilTelemetryNoOp pins the nil-receiver contract the campaign
// engine relies on: with Config.Telemetry unset, every instrumentation
// call must be safe to make and must not allocate, so the engine needs
// no telemetry branches on its hot path.
func TestNilTelemetryNoOp(t *testing.T) {
	var tele *Telemetry
	v := simclock.Date(2016, time.July, 20)
	if avg := testing.AllocsPerRun(100, func() {
		ref := tele.BeginSpan("phase", "label", v)
		tele.EndSpan(ref, v)
		tele.AddSpan("phase", "label", v, v)
		_ = tele.Eventf("phase", v, "msg")
		_ = tele.Spans()
		_ = tele.Events()
	}); avg != 0 {
		t.Errorf("nil-telemetry calls make %v allocations; want 0", avg)
	}
	if ref := tele.BeginSpan("p", "", v); ref != SpanNone {
		t.Errorf("nil BeginSpan ref = %d, want SpanNone", ref)
	}
}

// fakeClock yields a deterministic wall-clock sequence: the fixed base
// instant, then one second later per call.
func fakeClock() func() time.Time {
	base := time.Date(2026, time.January, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Second)
		n++
		return t
	}
}

func TestSpanLog(t *testing.T) {
	tele := NewWithClock(fakeClock())
	v0 := simclock.Date(2016, time.July, 20)
	v1 := v0.Add(time.Hour)

	ref := tele.BeginSpan("probing", "", v0)
	if ref == SpanNone {
		t.Fatal("BeginSpan dropped the first span")
	}
	tele.EndSpan(ref, v1)
	tele.AddSpan("fault-episode", "vp1 outage", v0, v1)

	spans := tele.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Phase != "probing" || spans[0].VStart != v0 || spans[0].VEnd != v1 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if d := spans[0].WallEnd.Sub(spans[0].WallStart); d != time.Second {
		t.Errorf("span 0 wall duration = %v, want 1s (one fake-clock tick)", d)
	}
	if spans[1].Label != "vp1 outage" {
		t.Errorf("span 1 label = %q", spans[1].Label)
	}

	// Fill to the cap: the log must stop growing and count the drops.
	for i := len(spans); i < spanCap; i++ {
		tele.AddSpan("fill", "", v0, v0)
	}
	tele.AddSpan("overflow", "", v0, v0)
	tele.AddSpan("overflow", "", v0, v0)
	if got := len(tele.Spans()); got != spanCap {
		t.Errorf("span log grew past cap: %d > %d", got, spanCap)
	}
	if got := tele.SpansDropped.Load(); got != 2 {
		t.Errorf("SpansDropped = %d, want 2", got)
	}
	// EndSpan on the dropped ref must be a no-op, not a panic.
	tele.EndSpan(tele.BeginSpan("dropped", "", v0), v1)
}

func TestEventLog(t *testing.T) {
	tele := NewWithClock(fakeClock())
	v := simclock.Date(2016, time.July, 20)
	if d := tele.Eventf("progress", v, "links analyzed: %d", 7); d <= 0 {
		t.Errorf("Eventf elapsed = %v, want > 0", d)
	}
	evs := tele.Events()
	if len(evs) != 1 || evs[0].Msg != "links analyzed: 7" {
		t.Fatalf("events = %+v", evs)
	}
	for i := 1; i < eventCap; i++ {
		tele.Eventf("fill", v, "")
	}
	tele.Eventf("overflow", v, "")
	if got := len(tele.Events()); got != eventCap {
		t.Errorf("event log grew past cap: %d > %d", got, eventCap)
	}
	if got := tele.EventsDropped.Load(); got != 1 {
		t.Errorf("EventsDropped = %d, want 1", got)
	}
}

// TestSnapshotGolden freezes the JSON export layout. The fake clock
// makes every wall stamp deterministic, so any change to the snapshot
// schema shows up as a golden diff (regenerate with -update).
func TestSnapshotGolden(t *testing.T) {
	tele := NewWithClock(fakeClock())
	v0 := simclock.Date(2016, time.July, 20)
	v1 := v0.Add(6 * time.Hour)

	tele.Engine.BatchesOpened.Add(3)
	tele.Engine.QuiescentSteps.Add(1021)
	tele.Engine.Flushes.Add(3)
	tele.Engine.RoundsDispatched.Add(6144)
	tele.Engine.BatchLen.Observe(1024)
	tele.Engine.SetWorkers(2)
	tele.Engine.AddWorkerBusy(0, 2*time.Second)
	tele.Engine.AddWorkerBusy(1, time.Second)

	tele.Probe.Probes.Store(1000)
	tele.Probe.Delivered.Store(990)
	tele.Probe.PipeDrops.Store(6)
	tele.Probe.ICMPSilenced.Store(3)
	tele.Probe.RateLimited.Store(1)
	tele.Probe.QueueFrozenObs.Store(2000)
	tele.Probe.InjectWalks.Store(50)
	tele.Probe.InjectDelivered.Store(48)
	tele.Probe.InjectLost.Store(1)
	tele.Probe.InjectUnreachable.Store(1)
	tele.Probe.RTT.StoreBucket(14, 700) // 8.2–16.4 ms
	tele.Probe.RTT.StoreBucket(15, 290) // 16.4–32.8 ms

	tele.Analysis.Sweeps.Add(12)
	tele.Analysis.FoldsComputed.Add(4)
	tele.Analysis.FoldsReused.Add(12)

	tele.Faults.Planned.Store(5)
	tele.Faults.Entered.Store(2)
	tele.Faults.Exited.Store(2)

	ref := tele.BeginSpan("discovery", "vp1", v0)
	tele.EndSpan(ref, v0)
	ref = tele.BeginSpan("probing", "", v0)
	tele.EndSpan(ref, v1)
	tele.Eventf("progress", v1, "campaign done; analyzing %d links", 16)

	var buf strings.Builder
	if err := tele.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "snapshot.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("snapshot JSON differs from golden (regenerate with -update):\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The golden bytes must round-trip as a valid Snapshot too.
	var s Snapshot
	if err := json.Unmarshal([]byte(got), &s); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if s.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", s.Schema, SchemaVersion)
	}
	if s.Analysis.FoldHitRate != 0.75 {
		t.Errorf("fold hit rate = %v, want 0.75", s.Analysis.FoldHitRate)
	}
}

func TestServe(t *testing.T) {
	tele := New()
	tele.Probe.Probes.Store(123)
	srv, err := tele.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var s Snapshot
	if err := json.Unmarshal(get("/metrics"), &s); err != nil {
		t.Fatalf("/metrics is not snapshot JSON: %v", err)
	}
	if s.Schema != SchemaVersion {
		t.Errorf("/metrics schema = %q, want %q", s.Schema, SchemaVersion)
	}
	if s.Probe.Probes != 123 {
		t.Errorf("/metrics probes = %d, want 123", s.Probe.Probes)
	}

	if body := string(get("/debug/vars")); !strings.Contains(body, `"afrixp"`) {
		t.Error("/debug/vars does not publish the afrixp var")
	}

	// A second Serve (fresh telemetry) must not trip the process-global
	// expvar duplicate-publish panic, and the expvar hook must follow
	// the most recent telemetry.
	tele2 := New()
	tele2.Probe.Probes.Store(456)
	srv2, err := tele2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var vars struct {
		Afrixp Snapshot `json:"afrixp"`
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Afrixp.Probe.Probes != 456 {
		t.Errorf("expvar afrixp follows stale telemetry: probes = %d, want 456", vars.Afrixp.Probe.Probes)
	}
}

// TestServeMounts: extra handlers ride beside /metrics on the same
// port — the hook the streaming observatory uses — without touching
// the built-in endpoints.
func TestServeMounts(t *testing.T) {
	tele := New()
	tele.Probe.Probes.Store(7)
	srv, err := tele.Serve("127.0.0.1:0", func(mux *http.ServeMux) {
		mux.HandleFunc("/extra", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "mounted")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/extra")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "mounted" {
		t.Errorf("/extra = %q", body)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	err = json.NewDecoder(resp.Body).Decode(&s)
	resp.Body.Close()
	if err != nil || s.Schema != SchemaVersion || s.Probe.Probes != 7 {
		t.Errorf("/metrics broken beside mounts: err=%v schema=%q probes=%d", err, s.Schema, s.Probe.Probes)
	}
}

// TestServeScrapeWhilePublishing races live /metrics scrapes against a
// campaign-shaped publisher hammering every counter family the engine
// writes at barriers — the exact concurrency a long run with
// -metrics-addr exhibits. Run under -race in CI; every scrape must
// still decode as a schema-correct snapshot.
func TestServeScrapeWhilePublishing(t *testing.T) {
	tele := New()
	tele.Engine.SetWorkers(2)
	tele.Engine.SetShards(1)
	srv, err := tele.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		at := simclock.Date(2016, time.July, 20)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tele.Engine.BatchesOpened.Inc()
			tele.Engine.RoundsDispatched.Add(64)
			tele.Engine.BatchLen.Observe(64)
			tele.Engine.AddWorkerBusy(i%2, time.Microsecond)
			tele.Probe.Probes.Store(uint64(i))
			tele.Probe.Delivered.Store(uint64(i))
			tele.Probe.RTT.StoreBucket(14, uint64(i))
			if g := tele.Engine.Shard(0); g != nil {
				g.ResidentBytes.Set(int64(i))
				g.Rounds.Set(int64(i))
			}
			if i%64 == 0 {
				ref := tele.BeginSpan("probe-batch", "", at)
				tele.EndSpan(ref, at)
				tele.Eventf("progress", at, "round %d", i)
			}
			at = at.Add(5 * time.Minute)
			// Pace the publisher: unthrottled it floods the span log and
			// every scrape pays to serialize it — the race coverage needs
			// overlap, not volume.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 25; i++ {
		resp, err := client.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		var s Snapshot
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: not snapshot JSON: %v", i, err)
		}
		if s.Schema != SchemaVersion {
			t.Fatalf("scrape %d: schema %q", i, s.Schema)
		}
	}
	close(stop)
	<-done
	if tele.Engine.BatchesOpened.Load() == 0 {
		t.Fatal("publisher never ran; the race test is vacuous")
	}
}
