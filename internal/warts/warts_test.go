package warts

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/simclock"
)

func ma(s string) netaddr.Addr { return netaddr.MustParseAddr(s) }

func sample() []*Record {
	return []*Record{
		{Type: TypePing, VP: "gixa-gh", At: simclock.Date(2016, time.March, 1),
			Target: ma("196.49.7.10"), Responder: ma("196.49.7.10"),
			TTL: 64, RespType: 0, RTT: 1234 * time.Microsecond},
		{Type: TypeTSLP, VP: "gixa-gh", At: simclock.Date(2016, time.March, 1).Add(5 * time.Minute),
			Target: ma("196.49.7.10"), TTL: 2, Lost: true},
		{Type: TypeRRPing, VP: "sixp-gm", At: simclock.Date(2016, time.July, 1),
			Target: ma("10.9.9.9"), Responder: ma("10.9.9.9"), TTL: 64,
			RTT: 20 * time.Millisecond, RRFull: true,
			RR: []netaddr.Addr{ma("10.0.0.1"), ma("10.9.9.9"), ma("10.0.0.2")}},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, wrec := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, wrec) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, wrec)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE1234"))); err != ErrBadMagic {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("AW"))); err == nil {
		t.Fatal("short magic must fail")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(sample()[0])
	w.Flush()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated body should error, got %v", err)
	}
}

func TestCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 57; i++ {
		w.Write(&Record{Type: TypePing, VP: "x", At: simclock.Time(i)})
	}
	w.Flush()
	r, _ := NewReader(&buf)
	n, err := Count(r)
	if err != nil || n != 57 {
		t.Fatalf("count = %d err %v", n, err)
	}
}

func TestValidationErrors(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	long := make([]byte, 300)
	if err := w.Write(&Record{VP: string(long)}); err == nil {
		t.Fatal("long VP must be rejected")
	}
	if err := w.Write(&Record{RR: make([]netaddr.Addr, 300)}); err == nil {
		t.Fatal("long RR must be rejected")
	}
}

func TestRTTSaturation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(&Record{Type: TypePing, VP: "x", RTT: 100 * time.Hour})
	w.Flush()
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.RTT != time.Duration(^uint32(0))*time.Microsecond {
		t.Fatalf("oversized RTT should saturate, got %v", rec.RTT)
	}
}

func TestFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	var want []*Record
	for i := 0; i < 500; i++ {
		rec := &Record{
			Type:      uint8(1 + rng.Intn(5)),
			VP:        string(rune('a' + rng.Intn(26))),
			At:        simclock.Time(rng.Int63n(1 << 50)),
			Target:    netaddr.Addr(rng.Uint32()),
			Responder: netaddr.Addr(rng.Uint32()),
			TTL:       uint8(rng.Intn(256)),
			RespType:  uint8(rng.Intn(256)),
			RTT:       time.Duration(rng.Intn(1e9)) * time.Microsecond,
			Lost:      rng.Intn(2) == 0,
			RRFull:    rng.Intn(2) == 0,
		}
		for j := 0; j < rng.Intn(9); j++ {
			rec.RR = append(rec.RR, netaddr.Addr(rng.Uint32()))
		}
		want = append(want, rec)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r, _ := NewReader(&buf)
	for i := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard)
	rec := sample()[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Write(rec)
	}
	w.Flush()
}

// FuzzWartsReader feeds the reader arbitrary streams. It must not
// panic, and every record it returns before its first error must
// survive Write and Next unchanged.
func FuzzWartsReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range sample() {
		if err := w.Write(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-3])
	f.Add([]byte("AWT1"))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := NewReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		var got []*Record
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			got = append(got, rec)
		}
		var out bytes.Buffer
		w, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range got {
			if err := w.Write(rec); err != nil {
				t.Fatalf("rewriting %+v: %v", rec, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err = NewReader(&out)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range got {
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("record %d: round trip gave %+v, want %+v", i, rec, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after %d records: %v, want EOF", len(got), err)
		}
	})
}
