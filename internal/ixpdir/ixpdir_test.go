package ixpdir

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"afrixp/internal/asrel"
	"afrixp/internal/netaddr"
)

func sample() *Directory {
	return &Directory{
		IXPs: []IXP{
			{Name: "GIXA", Country: "GH", Region: "West Africa", Launched: 2005,
				PeeringLAN: netaddr.MustParsePrefix("196.49.7.0/24"),
				Management: netaddr.MustParsePrefix("196.49.8.0/24")},
			{Name: "KIXP", Country: "KE", Region: "East Africa", Launched: 2002,
				PeeringLAN: netaddr.MustParsePrefix("196.223.14.0/23")},
		},
		PortAssignments: []PortAssignment{
			{IXPName: "GIXA", Addr: netaddr.MustParseAddr("196.49.7.10"), ASN: 29614},
			{IXPName: "GIXA", Addr: netaddr.MustParseAddr("196.49.7.11"), ASN: 33786},
			{IXPName: "KIXP", Addr: netaddr.MustParseAddr("196.223.14.5"), ASN: 30844},
		},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got.IXPs) != 2 || len(got.PortAssignments) != 3 {
		t.Fatalf("parsed %d ixps, %d ports", len(got.IXPs), len(got.PortAssignments))
	}
	for i := range want.IXPs {
		if got.IXPs[i] != want.IXPs[i] {
			t.Errorf("IXP %d: %+v != %+v", i, got.IXPs[i], want.IXPs[i])
		}
	}
	for i := range want.PortAssignments {
		if got.PortAssignments[i] != want.PortAssignments[i] {
			t.Errorf("port %d mismatch", i)
		}
	}
}

func TestEmptyManagementPrefixRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "|196.223.14.0/23|\n") {
		t.Fatalf("KIXP line should end with empty management field:\n%s", buf.String())
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IXPs[1].Management.Bits != 0 {
		t.Fatal("empty management prefix should stay zero")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"ixp|GIXA|GH|West Africa|2005|196.49.7.0/24",         // 6 fields
		"ixp|GIXA|GH|West Africa|year|196.49.7.0/24|",        // bad year
		"ixp|GIXA|GH|West Africa|2005|196.49.7.0|",           // bad prefix
		"ixp|GIXA|GH|West Africa|2005|196.49.7.0/24|badmgmt", // bad mgmt
		"port|GIXA|196.49.7.10",                              // short
		"port|GIXA|notanip|29614",                            // bad addr
		"port|GIXA|196.49.7.10|notasn",                       // bad asn
		"wat|x",                                              // unknown record
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

func TestParseSkipsComments(t *testing.T) {
	in := "# header\n\nport|GIXA|196.49.7.10|29614\n"
	d, err := Parse(strings.NewReader(in))
	if err != nil || len(d.PortAssignments) != 1 {
		t.Fatalf("%v err=%v", d, err)
	}
}

func TestIXPForAddr(t *testing.T) {
	ix := NewIndex(sample())
	x, ok := ix.IXPForAddr(netaddr.MustParseAddr("196.49.7.200"))
	if !ok || x.Name != "GIXA" {
		t.Fatalf("peering LAN lookup: %v %v", x, ok)
	}
	x, ok = ix.IXPForAddr(netaddr.MustParseAddr("196.49.8.1"))
	if !ok || x.Name != "GIXA" {
		t.Fatal("management prefix must also map to the IXP")
	}
	if _, ok := ix.IXPForAddr(netaddr.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("non-IXP space must miss")
	}
}

func TestOnPeeringLAN(t *testing.T) {
	ix := NewIndex(sample())
	if !ix.OnPeeringLAN(netaddr.MustParseAddr("196.49.7.1")) {
		t.Fatal("peering LAN address must be on LAN")
	}
	if ix.OnPeeringLAN(netaddr.MustParseAddr("196.49.8.1")) {
		t.Fatal("management address is not on the peering LAN")
	}
}

func TestByNameAndPortOwner(t *testing.T) {
	ix := NewIndex(sample())
	x, ok := ix.ByName("KIXP")
	if !ok || x.Country != "KE" {
		t.Fatal("ByName failed")
	}
	if _, ok := ix.ByName("NOPE"); ok {
		t.Fatal("unknown name must miss")
	}
	asn, ok := ix.PortOwner(netaddr.MustParseAddr("196.49.7.11"))
	if !ok || asn != 33786 {
		t.Fatalf("PortOwner = %v %v", asn, ok)
	}
}

func TestMembers(t *testing.T) {
	ix := NewIndex(sample())
	m := ix.Members("GIXA")
	if len(m) != 2 || m[0] != asrel.ASN(29614) || m[1] != asrel.ASN(33786) {
		t.Fatalf("Members = %v", m)
	}
	if len(ix.Members("NONE")) != 0 {
		t.Fatal("unknown IXP has no members")
	}
}

// FuzzIXPDirParse feeds the directory parser arbitrary bytes. It must
// not panic, and an accepted directory must survive Write and Parse
// unchanged.
func FuzzIXPDirParse(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# comment\n\nixp|X|ZZ||0|0.0.0.0/0|\nport|X|0.0.0.0|0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			return
		}
		again, err := Parse(&out)
		if err != nil {
			t.Fatalf("written directory does not parse: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the directory:\n%+v\n%+v", got, again)
		}
	})
}
