package transport

import (
	"sync"

	"osdc/internal/sim"
)

// FlowGroup is one shared-bottleneck pricing job: flows contending on one
// path (a directed WAN link, say), named so the group can be homed onto a
// shard deterministically.
type FlowGroup struct {
	Name  string
	Path  Path
	Ctrls []Controller
	Sizes []int64
}

// GroupHome returns the home index a group name hashes to (FNV-1a mod k)
// — the same function sim.ShardSet.ShardIndex applies to entity keys, so
// a flow group and an entity sharing a key land on the same shard index.
func GroupHome(name string, k int) int {
	if k <= 1 {
		return 0
	}
	return int(fnv64(name) % uint64(k))
}

func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// SimulateGrouped prices every group, fanned out over one goroutine per
// home (GroupHome(name, k)); each home prices its groups serially in
// input order. Every group draws from a private RNG stream seeded
// seed^FNV(name), so the results are a pure function of (seed, groups):
// bit-identical for any k >= 1 and stable under concurrent pricing.
func SimulateGrouped(seed uint64, k int, groups []FlowGroup) [][]Result {
	out := make([][]Result, len(groups))
	if len(groups) == 0 {
		return out
	}
	if k < 1 {
		k = 1
	}
	byHome := make([][]int, k)
	for i, g := range groups {
		h := GroupHome(g.Name, k)
		byHome[h] = append(byHome[h], i)
	}
	var wg sync.WaitGroup
	for _, idxs := range byHome {
		if len(idxs) == 0 {
			continue
		}
		idxs := idxs
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range idxs {
				g := groups[i]
				out[i] = SimulateShared(sim.NewRNG(seed^fnv64(g.Name)), g.Path, g.Ctrls, g.Sizes, Caps{})
			}
		}()
	}
	wg.Wait()
	return out
}
