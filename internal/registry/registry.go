// Package registry implements the RIR "extended delegated statistics"
// file format (the ftp.afrinic.net/stats files bdrmap consumes in the
// paper) — both a writer used by the scenario generator to publish its
// ground-truth address plan, and a strict parser used by the inference
// side. Keeping the interchange in the real byte format means the
// bdrmap pipeline would run unmodified against genuine RIR data.
//
// Format reference (one record per line, pipe-separated):
//
//	registry|cc|type|start|value|date|status[|opaque-id]
//
// preceded by a version line and per-type summary lines:
//
//	2|afrinic|20170306|3|19850701|20170306|+00:00
//	afrinic|*|ipv4|*|2|summary
//	afrinic|*|asn|*|1|summary
package registry

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/netaddr"
)

// Delegation is one delegated resource: either an IPv4 block or an ASN.
type Delegation struct {
	Registry string // e.g. "afrinic"
	CC       string // ISO country code, e.g. "GH"
	Type     string // "ipv4" or "asn"

	// IPv4 delegations
	Prefix netaddr.Prefix

	// ASN delegations
	ASN asrel.ASN

	Date   time.Time // delegation date
	Status string    // "allocated" or "assigned"
	Opaque string    // opaque org id, shared by sibling resources
}

// File is a parsed delegation file.
type File struct {
	Registry    string
	Serial      string
	Delegations []Delegation
}

// Write serializes the file in the extended delegated format. IPv4
// delegations whose size is not a power of two are rejected (the
// simulator always delegates CIDR-aligned blocks), and so is any text
// field Parse would read back differently (checkFields).
func Write(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	if f.Registry == "2" || f.Registry == "2.3" || strings.HasPrefix(f.Registry, "#") {
		return fmt.Errorf("registry: registry name %q reads as a version or comment line", f.Registry)
	}
	if err := checkFields(f.Registry, f.Serial); err != nil {
		return err
	}
	var v4, asn int
	for _, d := range f.Delegations {
		switch d.Type {
		case "ipv4":
			v4++
		case "asn":
			asn++
		default:
			return fmt.Errorf("registry: unknown delegation type %q", d.Type)
		}
		if err := checkFields(d.CC, d.Status, d.Opaque); err != nil {
			return err
		}
	}
	serial := f.Serial
	if serial == "" {
		serial = "20170306"
	}
	fmt.Fprintf(bw, "2|%s|%s|%d|19850701|%s|+00:00\n",
		f.Registry, serial, v4+asn, serial)
	fmt.Fprintf(bw, "%s|*|ipv4|*|%d|summary\n", f.Registry, v4)
	fmt.Fprintf(bw, "%s|*|asn|*|%d|summary\n", f.Registry, asn)
	for _, d := range f.Delegations {
		date := d.Date.Format("20060102")
		switch d.Type {
		case "ipv4":
			n := d.Prefix.NumAddrs()
			fmt.Fprintf(bw, "%s|%s|ipv4|%s|%d|%s|%s|%s\n",
				f.Registry, d.CC, d.Prefix.Addr, n, date, d.Status, d.Opaque)
		case "asn":
			fmt.Fprintf(bw, "%s|%s|asn|%d|1|%s|%s|%s\n",
				f.Registry, d.CC, uint32(d.ASN), date, d.Status, d.Opaque)
		}
	}
	return bw.Flush()
}

// checkFields rejects a text field that would not read back as
// written: one holding the separator or a line break, or one with
// surrounding white space, which Parse trims off a line's ends.
func checkFields(fields ...string) error {
	for _, s := range fields {
		if strings.ContainsAny(s, "|\r\n") || strings.TrimSpace(s) != s {
			return fmt.Errorf("registry: field %q cannot be written", s)
		}
	}
	return nil
}

// Parse reads an extended delegated file, validating record syntax.
// Summary and version lines are checked for consistency with the
// records actually present.
func Parse(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	f := &File{}
	lineNo := 0
	declared := map[string]int{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		// Version line: 2|registry|serial|records|startdate|enddate|UTC
		if fields[0] == "2" || fields[0] == "2.3" {
			if len(fields) < 7 {
				return nil, fmt.Errorf("registry: line %d: short version line", lineNo)
			}
			f.Registry = fields[1]
			f.Serial = fields[2]
			continue
		}
		if len(fields) >= 6 && fields[5] == "summary" {
			n, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("registry: line %d: bad summary count", lineNo)
			}
			declared[fields[2]] = n
			continue
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("registry: line %d: %d fields", lineNo, len(fields))
		}
		d := Delegation{Registry: fields[0], CC: fields[1], Type: fields[2], Status: fields[6]}
		if len(fields) >= 8 {
			d.Opaque = fields[7]
		}
		if fields[5] != "" {
			date, err := time.Parse("20060102", fields[5])
			if err != nil {
				return nil, fmt.Errorf("registry: line %d: bad date %q", lineNo, fields[5])
			}
			d.Date = date
		}
		switch d.Type {
		case "ipv4":
			start, err := netaddr.ParseAddr(fields[3])
			if err != nil {
				return nil, fmt.Errorf("registry: line %d: %v", lineNo, err)
			}
			// A block is a power of two no larger than the address
			// space (2³² is the one /0).
			count, err := strconv.ParseUint(fields[4], 10, 64)
			if err != nil || count == 0 || count&(count-1) != 0 || count > 1<<32 {
				return nil, fmt.Errorf("registry: line %d: bad address count %q", lineNo, fields[4])
			}
			prefixBits := 32 - (bits.Len64(count) - 1)
			p := netaddr.PrefixFrom(start, prefixBits)
			if p.Addr != start {
				return nil, fmt.Errorf("registry: line %d: block %s/%d not CIDR-aligned", lineNo, start, count)
			}
			d.Prefix = p
		case "asn":
			v, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("registry: line %d: bad ASN %q", lineNo, fields[3])
			}
			d.ASN = asrel.ASN(v)
		default:
			return nil, fmt.Errorf("registry: line %d: unknown type %q", lineNo, d.Type)
		}
		f.Delegations = append(f.Delegations, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for typ, n := range declared {
		got := 0
		for _, d := range f.Delegations {
			if d.Type == typ {
				got++
			}
		}
		if got != n {
			return nil, fmt.Errorf("registry: summary declares %d %s records, file has %d", n, typ, got)
		}
	}
	return f, nil
}

// Index answers "which country / org was this address delegated to",
// the lookups bdrmap's ownership heuristics make.
type Index struct {
	v4   []Delegation // sorted by prefix address
	byAS map[asrel.ASN]Delegation
}

// NewIndex builds an index over one or more parsed files.
func NewIndex(files ...*File) *Index {
	ix := &Index{byAS: make(map[asrel.ASN]Delegation)}
	for _, f := range files {
		for _, d := range f.Delegations {
			switch d.Type {
			case "ipv4":
				ix.v4 = append(ix.v4, d)
			case "asn":
				ix.byAS[d.ASN] = d
			}
		}
	}
	sort.Slice(ix.v4, func(i, j int) bool {
		if ix.v4[i].Prefix.Addr != ix.v4[j].Prefix.Addr {
			return ix.v4[i].Prefix.Addr < ix.v4[j].Prefix.Addr
		}
		return ix.v4[i].Prefix.Bits < ix.v4[j].Prefix.Bits
	})
	return ix
}

// LookupAddr returns the most specific delegation covering addr.
func (ix *Index) LookupAddr(addr netaddr.Addr) (Delegation, bool) {
	// Binary search for the last delegation starting at or before addr,
	// then walk back while ranges still cover addr, keeping the most
	// specific. Delegations rarely nest more than a few levels.
	i := sort.Search(len(ix.v4), func(i int) bool { return ix.v4[i].Prefix.Addr > addr })
	best := Delegation{}
	bestBits := -1
	for j := i - 1; j >= 0; j-- {
		p := ix.v4[j].Prefix
		if p.Contains(addr) && p.Bits > bestBits {
			best, bestBits = ix.v4[j], p.Bits
		}
		// Once we are more than a /8 below addr we can stop scanning.
		if addr-p.Addr > 1<<24 {
			break
		}
	}
	return best, bestBits >= 0
}

// LookupASN returns the delegation record for an ASN.
func (ix *Index) LookupASN(a asrel.ASN) (Delegation, bool) {
	d, ok := ix.byAS[a]
	return d, ok
}

// ASNForOrg returns the lowest ASN delegated to an opaque org id —
// the org→ASN direction of the mapping, used to attribute delegated
// but unannounced address space to a network.
func (ix *Index) ASNForOrg(opaque string) (asrel.ASN, bool) {
	best, found := asrel.ASN(0), false
	for asn, rec := range ix.byAS {
		if rec.Opaque == opaque && (!found || asn < best) {
			best, found = asn, true
		}
	}
	return best, found
}

// SiblingASNs returns all ASNs sharing the opaque org id of a — the
// seed for the paper's semi-manual sibling lists.
func (ix *Index) SiblingASNs(a asrel.ASN) []asrel.ASN {
	d, ok := ix.byAS[a]
	if !ok || d.Opaque == "" {
		return nil
	}
	var out []asrel.ASN
	for asn, rec := range ix.byAS {
		if asn != a && rec.Opaque == d.Opaque {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
