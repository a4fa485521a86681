package packet

import (
	"bytes"
	"testing"

	"afrixp/internal/netaddr"
)

// builtDatagrams returns wire bytes from the package's own builders:
// echo requests with and without Record Route, the reply to one, and a
// time-exceeded error quoting it — each whole, plus its ICMP layer and
// the error's quote, so every decoder starts from valid input.
func builtDatagrams(tb testing.TB) [][]byte {
	req := IPv4{TTL: 7, ID: 0x1234, Src: ma("196.49.7.1"), Dst: ma("41.242.0.9")}
	rrReq := req
	rrReq.RecordRoute = &RecordRoute{Slots: MaxRecordRouteSlots,
		Recorded: []netaddr.Addr{ma("10.0.0.1"), ma("10.0.0.2")}}
	var out [][]byte
	add := func(wire []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, wire)
		_, pl, err := DecodeIPv4(wire)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, pl)
		if m, err := DecodeICMP(pl); err == nil && m.IsError() {
			out = append(out, m.Quote)
		}
		return wire
	}
	echo := add(BuildEcho(req, 0xBEEF, 3, []byte("tx-timestamp")))
	add(BuildEcho(rrReq, 1, 2, nil))
	ip, pl, _ := DecodeIPv4(echo)
	m, _ := DecodeICMP(pl)
	add(BuildEchoReply(ip, m, 64, 99))
	add(BuildTimeExceeded(IPv4{TTL: 255, Src: ma("10.9.9.9"), Dst: req.Src}, echo))
	return out
}

// within reports whether sub is in[off:off+len(sub)] for some off.
// The decoders slice with two indexes, so off is cap(in) − cap(sub).
func within(in, sub []byte) bool {
	if len(sub) == 0 {
		return true
	}
	off := cap(in) - cap(sub)
	return off >= 0 && off+len(sub) <= len(in) && &in[off] == &sub[0]
}

// sameHeader compares the header fields SerializeTo writes.
func sameHeader(a, b IPv4) bool {
	if a.TOS != b.TOS || a.ID != b.ID || a.TTL != b.TTL || a.Protocol != b.Protocol ||
		a.Src != b.Src || a.Dst != b.Dst || (a.RecordRoute == nil) != (b.RecordRoute == nil) {
		return false
	}
	if a.RecordRoute == nil {
		return true
	}
	if a.RecordRoute.Slots != b.RecordRoute.Slots || len(a.RecordRoute.Recorded) != len(b.RecordRoute.Recorded) {
		return false
	}
	for i, r := range a.RecordRoute.Recorded {
		if b.RecordRoute.Recorded[i] != r {
			return false
		}
	}
	return true
}

// FuzzDecodeIPv4: decoding never panics, the payload is the input's
// bytes up to TotalLength, and what the decoder accepts serializes
// back to a datagram that decodes to the same header and payload.
func FuzzDecodeIPv4(f *testing.F) {
	for _, b := range builtDatagrams(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, pl, err := DecodeIPv4(in)
		if err != nil {
			return
		}
		if !within(in, pl) || int(h.TotalLength) > len(in) ||
			(len(pl) > 0 && &in[int(h.TotalLength)-len(pl)] != &pl[0]) {
			t.Fatalf("payload of %d bytes does not end at TotalLength %d of %d input bytes",
				len(pl), h.TotalLength, len(in))
		}
		wire, err := h.SerializeTo(nil, pl)
		if err != nil {
			t.Fatalf("decoded header does not serialize: %v", err)
		}
		got, gotPl, err := DecodeIPv4(wire)
		if err != nil || !sameHeader(got, h) || !bytes.Equal(gotPl, pl) {
			t.Fatalf("round trip: %+v %x (%v), want %+v %x", got, gotPl, err, h, pl)
		}
	})
}

// FuzzDecodeICMP: decoding never panics, echo payloads and error quotes
// lie within the input, and an accepted message serializes back to
// one that decodes to the same fields.
func FuzzDecodeICMP(f *testing.F) {
	for _, b := range builtDatagrams(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := DecodeICMP(in)
		if err != nil {
			return
		}
		if !within(in, m.Payload) || !within(in, m.Quote) {
			t.Fatal("payload or quote outside the input")
		}
		got, err := DecodeICMP(m.SerializeTo(nil))
		if err != nil || got.Type != m.Type || got.Code != m.Code || got.ID != m.ID ||
			got.Seq != m.Seq || !bytes.Equal(got.Payload, m.Payload) || !bytes.Equal(got.Quote, m.Quote) {
			t.Fatalf("round trip: %+v (%v), want %+v", got, err, m)
		}
	})
}

// FuzzParseQuote: parsing never panics and reads no further than the
// 68 bytes a time-exceeded error quotes, so the quote BuildTimeExceeded
// embeds for any datagram parses exactly as the datagram itself; the
// header it reports is DecodeIPv4's whenever that accepts the input.
func FuzzParseQuote(f *testing.F) {
	for _, b := range builtDatagrams(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, m, err := ParseQuote(in)
		wire, berr := BuildTimeExceeded(IPv4{TTL: 255, Src: ma("10.9.9.9"), Dst: ma("10.0.0.1")}, in)
		if berr != nil {
			t.Fatal(berr)
		}
		_, pl, derr := DecodeIPv4(wire)
		if derr != nil {
			t.Fatalf("built error does not decode: %v", derr)
		}
		te, derr := DecodeICMP(pl)
		if derr != nil || te.Type != ICMPTimeExceeded || !within(wire, te.Quote) ||
			!bytes.Equal(te.Quote, in[:min(len(in), icmpErrorQuoteOptMax)]) {
			t.Fatalf("built error quotes %x (%v), want a prefix of %x", te.Quote, derr, in)
		}
		qh, qm, qerr := ParseQuote(te.Quote)
		if qh != h || qm.Type != m.Type || qm.Code != m.Code || qm.ID != m.ID ||
			qm.Seq != m.Seq || (qerr == nil) != (err == nil) {
			t.Fatalf("quote parses as %+v %+v (%v), input as %+v %+v (%v)", qh, qm, qerr, h, m, err)
		}
		if ip, _, err := DecodeIPv4(in); err == nil {
			ip.RecordRoute, ip.TotalLength = nil, 0
			if ip != h {
				t.Fatalf("ParseQuote header %+v, DecodeIPv4 %+v", h, ip)
			}
		}
	})
}
