// Package alias implements IP alias resolution — deciding which
// interface addresses belong to the same physical router — using the
// Ally technique: routers draw the IP identification field of the
// responses they originate from one shared counter, so interleaved
// probes to two aliases of one router return a single monotonically
// increasing (mod 2^16) ID sequence, while two distinct routers return
// interleaved values from unrelated counters.
//
// bdrmap "applies alias resolution techniques to infer routers and
// point-to-point links used for interdomain interconnection" (§4);
// this package supplies that step.
package alias

import (
	"fmt"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
)

// The resolver's fixed tuning.
const (
	// probes is the number of probes per address in one Ally test
	// (interleaved).
	probes = 4
	// maxGap is the largest believable counter advance between two
	// consecutive responses of one router (generous: busy routers
	// answer other traffic between our probes).
	maxGap = 1000
	// spacing is the time between consecutive probes.
	spacing = 20 * time.Millisecond
)

// Resolver runs alias tests through a prober.
type Resolver struct {
	p *prober.Prober
}

// NewResolver binds a resolver to a prober.
func NewResolver(p *prober.Prober) *Resolver {
	return &Resolver{p: p}
}

// Ally tests whether addresses a and b alias to the same router by
// interleaving echo probes and checking that the combined IP-ID
// sequence is a single bounded-gap monotonic counter.
func (r *Resolver) Ally(a, b netaddr.Addr, t simclock.Time) (bool, error) {
	ids := make([]uint16, 0, 2*probes)
	at := t
	for i := 0; i < probes; i++ {
		for _, dst := range []netaddr.Addr{a, b} {
			res, err := r.p.Ping(dst, 64, at)
			if err != nil {
				return false, fmt.Errorf("alias: probing %v: %w", dst, err)
			}
			at = res.SentAt.Add(spacing)
			if res.Lost {
				// One retry per slot; persistent loss aborts the test.
				res, err = r.p.Ping(dst, 64, at)
				if err != nil || res.Lost {
					return false, fmt.Errorf("alias: %v unresponsive", dst)
				}
				at = res.SentAt.Add(spacing)
			}
			ids = append(ids, res.RespIPID)
		}
	}
	return monotonic(ids, maxGap), nil
}

// monotonic reports whether ids advance by (0, maxGap] at every step,
// modulo 2^16.
func monotonic(ids []uint16, maxGap uint16) bool {
	for i := 1; i < len(ids); i++ {
		delta := ids[i] - ids[i-1] // wraps naturally
		if delta == 0 || delta > maxGap {
			return false
		}
	}
	return true
}

// Resolve groups addresses into routers using pairwise Ally tests and
// union-find. Unresponsive addresses end up in singleton groups.
// Cost is O(n²) probes; bdrmap applies it to the small per-neighbor
// candidate sets, not the whole address space.
func (r *Resolver) Resolve(addrs []netaddr.Addr, t simclock.Time) ([][]netaddr.Addr, error) {
	parent := make([]int, len(addrs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	at := t
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if find(i) == find(j) {
				continue // already grouped transitively
			}
			same, err := r.Ally(addrs[i], addrs[j], at)
			at = at.Add(time.Duration(2*probes) * spacing)
			if err != nil {
				continue // unresponsive pair stays separate
			}
			if same {
				parent[find(j)] = find(i)
			}
		}
	}
	groups := make(map[int][]netaddr.Addr)
	for i, a := range addrs {
		root := find(i)
		groups[root] = append(groups[root], a)
	}
	out := make([][]netaddr.Addr, 0, len(groups))
	for i := range addrs {
		if find(i) == i {
			out = append(out, groups[i])
		}
	}
	return out, nil
}

// GroupOracle converts resolved groups into a SameRouter-style oracle
// (used by the record-route symmetry checker).
func GroupOracle(groups [][]netaddr.Addr) func(a, b netaddr.Addr) bool {
	id := make(map[netaddr.Addr]int)
	for g, addrs := range groups {
		for _, a := range addrs {
			id[a] = g + 1
		}
	}
	return func(a, b netaddr.Addr) bool {
		ga, gb := id[a], id[b]
		return ga != 0 && ga == gb
	}
}
