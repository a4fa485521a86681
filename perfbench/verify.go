package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"afrixp/internal/analysis"
	"afrixp/internal/experiments"
	"afrixp/internal/observatory"
	"afrixp/internal/simclock"
)

// goldenEntry pins one workload's verdicts at pinnedSeed.
type goldenEntry struct {
	VerdictDigest string `json:"verdict_digest"`
	// ResultDigest is experiments.ResultDigest at the same seed. It is
	// not checked: a change that keeps every decision but moves a
	// confidence value changes it, and stays measurable.
	ResultDigest string `json:"result_digest"`
}

//go:embed golden.json
var goldenJSON []byte

var golden = mustParseGolden(goldenJSON)

func mustParseGolden(b []byte) map[string]goldenEntry {
	m := map[string]goldenEntry{}
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return m
}

// verdictDigest hashes the decisions a campaign reached: for every
// link and threshold the Table 1 gates (flagged, near-flat, diurnal,
// symmetric, congested), plus the observatory's alert log when one is
// attached. Floats are hashed as raw bits.
func verdictDigest(res *experiments.Result, svc *observatory.Service) string {
	h := sha256.New()
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			for _, thr := range res.Cfg.Thresholds {
				v := lr.Verdicts[thr]
				fmt.Fprintf(h, "%s %v %g %t %t %t %t %t\n", vr.VP.ID, lr.Target, thr,
					v.Flagged, v.NearFlat, v.Diurnal.Diurnal, v.Symmetric, v.Congested)
			}
		}
	}
	if svc != nil {
		alerts, oldest := svc.AlertsSince(0, 0, nil)
		fmt.Fprintf(h, "alerts total=%d oldest=%d\n", svc.TotalAlerts(), oldest)
		for _, a := range alerts {
			fmt.Fprintf(h, "%d %s %d %s>%s %x %x %x\n", a.Seq, a.Link, a.AtNs, a.From, a.To,
				math.Float64bits(a.ThresholdMs), math.Float64bits(a.MagnitudeMs), math.Float64bits(a.Evidence))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkDigest compares a run's verdict digest with the pinned one when
// the run used pinnedSeed. Other seeds have no pinned
// digest; their runs are checked against each other instead. A moved
// result digest is only reported.
func checkDigest(r runResult, pins map[string]goldenEntry) []string {
	pin, ok := pins[r.Workload]
	if !ok {
		return []string{fmt.Sprintf("no pinned verdict digest for %s (got %s)", r.Workload, r.VerdictDigest)}
	}
	if r.Seed != pinnedSeed {
		return nil
	}
	if r.ResultDigest != pin.ResultDigest {
		fmt.Fprintf(os.Stderr, "perfbench: %s: result digest %s, pinned %s (information only)\n",
			r.Workload, r.ResultDigest, pin.ResultDigest)
	}
	if r.VerdictDigest != pin.VerdictDigest {
		return []string{fmt.Sprintf("verdict digest %s, pinned %s", r.VerdictDigest, pin.VerdictDigest)}
	}
	return nil
}

// checkPartitions asserts the accounting invariants of a finished
// campaign:
//   - every VP was scheduled for every step of the campaign;
//   - each link's scheduled rounds, every step from its discovery to
//     the campaign end, are exactly attempted + missed + skipped;
//   - the observatory was fed every aggregated slot of every watched
//     link exactly once, and its final verdicts equal the engine's.
func checkPartitions(res *experiments.Result, svc *observatory.Service) []string {
	var fails []string
	cfg := res.Cfg
	steps := cfg.Campaign.NumSteps(cfg.Step)
	links, slots := 0, uint64(0)
	for _, vr := range res.VPs {
		if vr.RoundsScheduled != steps || vr.RoundsDown > vr.RoundsScheduled {
			fails = append(fails, fmt.Sprintf("%s: %d rounds scheduled (%d down), campaign has %d steps",
				vr.VP.ID, vr.RoundsScheduled, vr.RoundsDown, steps))
		}
		for _, lr := range vr.SortedLinks() {
			links++
			att, _, miss, skip := lr.Collector.Yield()
			want := simclock.Interval{Start: lr.DiscoveredAt, End: cfg.Campaign.End}.NumSteps(cfg.Step)
			if att+miss+skip != want {
				fails = append(fails, fmt.Sprintf("%s %v: attempted %d + missed %d + skipped %d != %d scheduled",
					vr.VP.ID, lr.Target, att, miss, skip, want))
			}
			_, _, n := lr.Collector.AggSpan()
			slots += uint64(n)
			if svc != nil && !sameGates(lr, svc.LinkVerdicts(vr.VP.ID, lr.Target), cfg.Thresholds) {
				fails = append(fails, fmt.Sprintf("%s %v: observatory verdicts differ from the engine's", vr.VP.ID, lr.Target))
			}
		}
	}
	if svc != nil {
		if svc.NumLinks() != links {
			fails = append(fails, fmt.Sprintf("observatory watches %d links, engine probed %d", svc.NumLinks(), links))
		}
		if fed := svc.FedSlots(); fed != slots {
			fails = append(fails, fmt.Sprintf("observatory fed %d slots, watched links hold %d", fed, slots))
		}
	}
	return fails
}

// sameGates reports whether a set of verdicts matches a link record's
// on every gate at every threshold.
func sameGates(lr *experiments.LinkRecord, got map[float64]analysis.Verdict, thresholds []float64) bool {
	if got == nil {
		return false
	}
	for _, thr := range thresholds {
		a, b := lr.Verdicts[thr], got[thr]
		if a.Flagged != b.Flagged || a.NearFlat != b.NearFlat || a.Diurnal.Diurnal != b.Diurnal.Diurnal ||
			a.Symmetric != b.Symmetric || a.Congested != b.Congested || a.Class != b.Class {
			return false
		}
	}
	return true
}
