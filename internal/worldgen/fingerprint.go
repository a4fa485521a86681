package worldgen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"afrixp/internal/asrel"
	"afrixp/internal/scenario"
)

// Stats summarizes a world's size for the scale sweep and the
// generator's acceptance thresholds.
type Stats struct {
	IXPs             int
	ASes             int
	VPs              int
	InterdomainLinks int
	// GroundTruthLinks counts planted congested links with interview
	// annotations (CongestedTruth).
	GroundTruthLinks int
}

// StatsOf measures a built world.
func StatsOf(w *scenario.World) Stats {
	s := Stats{
		IXPs:             len(w.IXPs),
		ASes:             len(w.Graph.ASes()),
		VPs:              len(w.VPs),
		InterdomainLinks: len(w.Net.InterdomainLinks()),
	}
	for _, a := range w.Interviews.All() {
		if a.CongestedTruth {
			s.GroundTruthLinks++
		}
	}
	return s
}

// Fingerprint hashes the world's complete observable structure —
// relationship graph, fabrics and memberships, vantage points with
// their case links, ground-truth interdomain adjacencies, scheduled
// events, and interview annotations — into a hex digest. Every
// enumeration is explicitly sorted (never raw map order), so the
// digest is a pure function of the generator inputs: same
// (Seed, Scale) must produce the same fingerprint on every run at any
// GOMAXPROCS, and different seeds must diverge. The determinism tests
// pin this.
func Fingerprint(w *scenario.World) string {
	sum := sha256.New()
	h := bufio.NewWriterSize(sum, 4<<10)
	fmt.Fprintf(h, "afrixp-worldgen/1 seed=%#x\n", w.Seed)
	// Relationship and link lines are most of the text on large
	// worlds; they are appended with strconv instead of fmt, to the
	// same bytes.
	var line []byte

	ases := w.Graph.ASes() // sorted
	fmt.Fprintf(h, "ases=%d\n", len(ases))
	for _, a := range ases {
		fmt.Fprintf(h, "AS%d name=%s org=%s\n", a, w.Graph.Name(a), w.Graph.OrgOf(a))
		for _, nb := range w.Graph.Neighbors(a) { // sorted
			line = strconv.AppendUint(append(line[:0], "  rel AS"...), uint64(nb), 10)
			line = strconv.AppendInt(append(line, ' '), int64(w.Graph.Rel(a, nb)), 10)
			h.Write(append(line, '\n'))
		}
	}

	names := make([]string, 0, len(w.IXPs))
	for name := range w.IXPs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "ixps=%d\n", len(names))
	for _, name := range names {
		x := w.IXPs[name]
		fmt.Fprintf(h, "ixp %s cc=%s city=%s region=%s launched=%d asn=%d peering=%v\n",
			x.Name, x.Country, x.City, x.Region, x.Launched, x.ASN, x.Peering)
		members := make([]asrel.ASN, 0, len(x.Members))
		for asn := range x.Members {
			members = append(members, asn)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for _, asn := range members {
			fmt.Fprintf(h, "  member AS%d port=%v\n", asn, x.Members[asn])
		}
	}

	fmt.Fprintf(h, "vps=%d\n", len(w.VPs))
	for _, vp := range w.VPs {
		fmt.Fprintf(h, "vp %s monitor=%s ixp=%s host=AS%d near=%v\n",
			vp.ID, vp.Monitor, vp.IXP, vp.HostAS, vp.NearAddr)
		cases := make([]string, 0, len(vp.CaseLinks))
		for name := range vp.CaseLinks {
			cases = append(cases, name)
		}
		sort.Strings(cases)
		for _, name := range cases {
			t := vp.CaseLinks[name]
			fmt.Fprintf(h, "  case %s near=%v far=%v\n", name, t.Near, t.Far)
		}
	}

	links := w.Net.InterdomainLinks() // sorted by the enumerator
	fmt.Fprintf(h, "links=%d\n", len(links))
	for _, l := range links {
		line = strconv.AppendInt(append(line[:0], "link "...), int64(l.NearIface), 10)
		line = strconv.AppendInt(append(line, ' '), int64(l.FarIface), 10)
		line = strconv.AppendUint(append(line, " AS"...), uint64(l.NearAS), 10)
		line = strconv.AppendUint(append(line, " AS"...), uint64(l.FarAS), 10)
		h.Write(append(line, '\n'))
	}

	evs := w.PendingEvents() // sorted by At
	fmt.Fprintf(h, "events=%d\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(h, "event %d %s\n", e.At, e.Name)
	}

	anns := w.Interviews.All() // sorted by (VP, Target)
	fmt.Fprintf(h, "annotations=%d\n", len(anns))
	for _, a := range anns {
		fmt.Fprintf(h, "ann vp=%s near=%v far=%v names=%s/%s truth=%t class=%d confirmed=%t\n",
			a.VP, a.Target.Near, a.Target.Far, a.NearName, a.FarName,
			a.CongestedTruth, a.Class, a.OperatorConfirmed)
		for _, p := range a.Phases {
			fmt.Fprintf(h, "  phase %d..%d cause=%s\n", p.Interval.Start, p.Interval.End, p.Cause)
		}
	}

	h.Flush() // writes to a hash never fail
	var digest [sha256.Size]byte
	return hex.EncodeToString(sum.Sum(digest[:0]))
}
