package registry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/netaddr"
)

func sample() *File {
	d := time.Date(2005, 1, 10, 0, 0, 0, 0, time.UTC)
	return &File{
		Registry: "afrinic",
		Serial:   "20170306",
		Delegations: []Delegation{
			{Registry: "afrinic", CC: "GH", Type: "ipv4",
				Prefix: netaddr.MustParsePrefix("196.49.0.0/16"), Date: d,
				Status: "allocated", Opaque: "ORG-GIXA"},
			{Registry: "afrinic", CC: "KE", Type: "ipv4",
				Prefix: netaddr.MustParsePrefix("41.242.0.0/20"), Date: d,
				Status: "assigned", Opaque: "ORG-LIQUID"},
			{Registry: "afrinic", CC: "GH", Type: "asn", ASN: 30997, Date: d,
				Status: "allocated", Opaque: "ORG-GIXA"},
			{Registry: "afrinic", CC: "KE", Type: "asn", ASN: 30844, Date: d,
				Status: "allocated", Opaque: "ORG-LIQUID"},
			{Registry: "afrinic", CC: "KE", Type: "asn", ASN: 4558, Date: d,
				Status: "allocated", Opaque: "ORG-LIQUID"},
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
	if got.Registry != "afrinic" || got.Serial != "20170306" {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Delegations) != len(want.Delegations) {
		t.Fatalf("got %d delegations", len(got.Delegations))
	}
	for i, d := range got.Delegations {
		w := want.Delegations[i]
		if d.CC != w.CC || d.Type != w.Type || d.Prefix != w.Prefix ||
			d.ASN != w.ASN || d.Status != w.Status || d.Opaque != w.Opaque ||
			!d.Date.Equal(w.Date) {
			t.Errorf("delegation %d: %+v != %+v", i, d, w)
		}
	}
}

func TestWriteFormatShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "2|afrinic|20170306|5|") {
		t.Fatalf("version line: %q", lines[0])
	}
	if lines[1] != "afrinic|*|ipv4|*|2|summary" {
		t.Fatalf("ipv4 summary: %q", lines[1])
	}
	if lines[2] != "afrinic|*|asn|*|3|summary" {
		t.Fatalf("asn summary: %q", lines[2])
	}
	if lines[3] != "afrinic|GH|ipv4|196.49.0.0|65536|20050110|allocated|ORG-GIXA" {
		t.Fatalf("ipv4 record: %q", lines[3])
	}
	if lines[5] != "afrinic|GH|asn|30997|1|20050110|allocated|ORG-GIXA" {
		t.Fatalf("asn record: %q", lines[5])
	}
}

func TestParseRejectsBadRecords(t *testing.T) {
	cases := map[string]string{
		"non-power-of-two": "afrinic|GH|ipv4|196.49.0.0|100|20050110|allocated",
		"unaligned":        "afrinic|GH|ipv4|196.49.0.1|256|20050110|allocated",
		"bad addr":         "afrinic|GH|ipv4|999.49.0.0|256|20050110|allocated",
		"bad asn":          "afrinic|GH|asn|notanasn|1|20050110|allocated",
		"bad type":         "afrinic|GH|ipv6|::1|1|20050110|allocated",
		"bad date":         "afrinic|GH|asn|1|1|2005|allocated",
		"short line":       "afrinic|GH|ipv4",
	}
	for name, line := range cases {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: expected parse error for %q", name, line)
		}
	}
}

func TestParseSummaryMismatch(t *testing.T) {
	in := "2|afrinic|20170306|1|19850701|20170306|+00:00\n" +
		"afrinic|*|ipv4|*|2|summary\n" +
		"afrinic|GH|ipv4|196.49.0.0|256|20050110|allocated\n"
	if _, err := Parse(strings.NewReader(in)); err == nil {
		t.Fatal("summary mismatch must be rejected")
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nafrinic|GH|asn|30997|1|20050110|allocated\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil || len(f.Delegations) != 1 {
		t.Fatalf("got %v, err %v", f, err)
	}
}

func TestParseEmptyDate(t *testing.T) {
	in := "afrinic|ZZ|asn|100|1||reserved\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil || !f.Delegations[0].Date.IsZero() {
		t.Fatalf("empty date should parse as zero time: %v err %v", f, err)
	}
}

func TestIndexLookupAddr(t *testing.T) {
	ix := NewIndex(sample())
	d, ok := ix.LookupAddr(netaddr.MustParseAddr("196.49.200.7"))
	if !ok || d.CC != "GH" {
		t.Fatalf("LookupAddr: %+v %v", d, ok)
	}
	if _, ok := ix.LookupAddr(netaddr.MustParseAddr("8.8.8.8")); ok {
		t.Fatal("undelegated space must miss")
	}
}

func TestIndexMostSpecificWins(t *testing.T) {
	f := sample()
	f.Delegations = append(f.Delegations, Delegation{
		Registry: "afrinic", CC: "NG", Type: "ipv4",
		Prefix: netaddr.MustParsePrefix("196.49.128.0/17"),
		Status: "assigned", Opaque: "ORG-SUB"})
	ix := NewIndex(f)
	d, ok := ix.LookupAddr(netaddr.MustParseAddr("196.49.200.1"))
	if !ok || d.CC != "NG" {
		t.Fatalf("most specific should win: %+v", d)
	}
	d, ok = ix.LookupAddr(netaddr.MustParseAddr("196.49.1.1"))
	if !ok || d.CC != "GH" {
		t.Fatalf("outside the /17 the /16 applies: %+v", d)
	}
}

func TestIndexLookupASNAndSiblings(t *testing.T) {
	ix := NewIndex(sample())
	d, ok := ix.LookupASN(30844)
	if !ok || d.Opaque != "ORG-LIQUID" {
		t.Fatalf("LookupASN: %+v", d)
	}
	sibs := ix.SiblingASNs(30844)
	if len(sibs) != 1 || sibs[0] != asrel.ASN(4558) {
		t.Fatalf("SiblingASNs = %v", sibs)
	}
	if got := ix.SiblingASNs(30997); len(got) != 0 {
		t.Fatalf("lone org should have no siblings, got %v", got)
	}
	if _, ok := ix.LookupASN(99999); ok {
		t.Fatal("unknown ASN must miss")
	}
}

func TestWriteRejectsUnknownType(t *testing.T) {
	f := &File{Registry: "afrinic", Delegations: []Delegation{{Type: "ipv6"}}}
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("unknown type must be rejected")
	}
}

// An IPv4 block holds a power of two of addresses no larger than the
// address space: 2³² is the one /0, and anything larger is rejected
// rather than clamped to /0.
func TestParseIPv4BlockSizes(t *testing.T) {
	cases := []struct {
		start, count string
		want         string // parsed prefix, or "" for an error
	}{
		{"0.0.0.0", "4294967296", "0.0.0.0/0"},
		{"128.0.0.0", "2147483648", "128.0.0.0/1"},
		{"196.49.7.1", "1", "196.49.7.1/32"},
		{"0.0.0.0", "8589934592", ""},          // 2³³
		{"0.0.0.0", "9223372036854775808", ""}, // 2⁶³
		{"0.0.0.0", "18446744073709551616", ""},
		{"0.0.0.0", "0", ""},
		{"128.0.0.0", "4294967296", ""}, // /0 must start at 0.0.0.0
	}
	for _, c := range cases {
		line := "afrinic|ZZ|ipv4|" + c.start + "|" + c.count + "|20050110|allocated\n"
		f, err := Parse(strings.NewReader(line))
		if c.want == "" {
			if err == nil {
				t.Errorf("%s count %s: parsed as %v, want an error", c.start, c.count, f.Delegations[0].Prefix)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s count %s: %v", c.start, c.count, err)
			continue
		}
		if got := f.Delegations[0].Prefix; got != netaddr.MustParsePrefix(c.want) {
			t.Errorf("%s count %s: parsed %v, want %s", c.start, c.count, got, c.want)
		}
	}
}

// sameDelegations compares two parsed files' records on every field
// Write carries (a record's own registry column is written as the
// file's).
func sameDelegations(a, b *File) bool {
	if len(a.Delegations) != len(b.Delegations) {
		return false
	}
	for i, x := range a.Delegations {
		y := b.Delegations[i]
		if x.CC != y.CC || x.Type != y.Type || x.Prefix != y.Prefix || x.ASN != y.ASN ||
			!x.Date.Equal(y.Date) || x.Status != y.Status || x.Opaque != y.Opaque {
			return false
		}
	}
	return true
}

// FuzzRegistryParse feeds the delegation parser arbitrary bytes. It
// must not panic. An accepted file must survive Write and Parse
// unchanged, and each accepted IPv4 record's block must hold exactly
// the address count its line states.
func FuzzRegistryParse(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Block sizes at the address space's edge: 2³² is the one /0,
	// 2³³ and 2⁶³ are too large.
	for _, count := range []string{"4294967296", "8589934592", "9223372036854775808"} {
		f.Add([]byte("afrinic|ZZ|ipv4|0.0.0.0|" + count + "|20050110|allocated\n"))
	}
	f.Add([]byte("# comment\n\nafrinic|ZZ|asn|100|1||reserved|ORG\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		// The records Parse accepted, in order, with their stated
		// address counts.
		k := 0
		for _, line := range strings.Split(string(in), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Split(line, "|")
			if fields[0] == "2" || fields[0] == "2.3" || len(fields) >= 6 && fields[5] == "summary" {
				continue
			}
			if d := got.Delegations[k]; d.Type == "ipv4" {
				if count, _ := strconv.ParseUint(fields[4], 10, 64); d.Prefix.NumAddrs() != count {
					t.Fatalf("line %q parsed as %v, %d addresses", line, d.Prefix, d.Prefix.NumAddrs())
				}
			}
			k++
		}
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			return
		}
		again, err := Parse(&out)
		if err != nil {
			t.Fatalf("written file does not parse: %v\n%s", err, out.Bytes())
		}
		if again.Registry != got.Registry || !sameDelegations(got, again) {
			t.Fatalf("round trip changed the file:\n%+v\n%+v", got, again)
		}
	})
}

// Write refuses text Parse would read back differently.
func TestWriteRejectsUnreadableFields(t *testing.T) {
	for name, mod := range map[string]func(*File){
		"comment registry": func(f *File) { f.Registry = "#afrinic" },
		"version registry": func(f *File) { f.Registry = "2" },
		"separator in cc":  func(f *File) { f.Delegations[0].CC = "G|H" },
		"newline status":   func(f *File) { f.Delegations[1].Status = "allocated\n" },
		"trailing opaque":  func(f *File) { f.Delegations[2].Opaque = "ORG-GIXA " },
	} {
		f := sample()
		mod(f)
		if err := Write(&bytes.Buffer{}, f); err == nil {
			t.Errorf("%s: Write accepted it", name)
		}
	}
}
