// Package simnet models the OSDC's wide-area and datacenter networks.
//
// The real OSDC spans four data centers (two in Chicago, the Livermore
// Valley Open Campus, and the AMPATH facility in Miami) connected by 10G
// research networks. This package provides:
//
//   - a static topology (Node, Link) whose links carry bandwidth,
//     propagation delay and residual loss;
//   - shortest-path routing and the path queries the transfer model
//     prices flows from (PathRTT, PathBandwidth, PathLoss);
//   - the canonical OSDC topology used throughout the benchmarks.
package simnet

import (
	"fmt"

	"osdc/internal/sim"
)

// Mbit and Gbit express bandwidths in bits per second.
const (
	Kbit = 1e3
	Mbit = 1e6
	Gbit = 1e9
)

// Link is a unidirectional pipe between two nodes with finite bandwidth, a
// fixed propagation delay and an independent per-packet loss probability.
type Link struct {
	From, To  string
	Bandwidth float64 // bits per second
	Delay     sim.Duration
	LossProb  float64 // per-packet independent drop probability
}

// Network holds the topology and its routes.
type Network struct {
	nodes  map[string]bool              // hosts and routers, by name
	links  map[string]*Link             // keyed "from->to"
	routes map[string]map[string]string // routes[src][dst] = next hop
}

// New creates an empty network.
func New() *Network {
	return &Network{
		nodes: make(map[string]bool),
		links: make(map[string]*Link),
	}
}

// AddNode creates a node. Adding a duplicate name panics: topologies are
// static configuration and a duplicate is a construction bug.
func (nw *Network) AddNode(name string) {
	if nw.nodes[name] {
		panic("simnet: duplicate node " + name)
	}
	nw.nodes[name] = true
	nw.routes = nil // invalidate routing
}

func linkKey(from, to string) string { return from + "->" + to }

// AddLink installs a unidirectional link. Both endpoints must exist.
func (nw *Network) AddLink(l Link) *Link {
	if !nw.nodes[l.From] || !nw.nodes[l.To] {
		panic(fmt.Sprintf("simnet: link %s->%s references unknown node", l.From, l.To))
	}
	if l.Bandwidth <= 0 {
		panic("simnet: link bandwidth must be positive")
	}
	cp := l
	nw.links[linkKey(l.From, l.To)] = &cp
	nw.routes = nil
	return &cp
}

// AddDuplex installs links in both directions with identical parameters.
func (nw *Network) AddDuplex(a, b string, bandwidth float64, delay sim.Duration, loss float64) (*Link, *Link) {
	f := nw.AddLink(Link{From: a, To: b, Bandwidth: bandwidth, Delay: delay, LossProb: loss})
	r := nw.AddLink(Link{From: b, To: a, Bandwidth: bandwidth, Delay: delay, LossProb: loss})
	return f, r
}

// PathRTT returns the round-trip propagation delay between two nodes along
// shortest paths (ignoring queueing and serialization).
func (nw *Network) PathRTT(a, b string) sim.Duration {
	return nw.pathDelay(a, b) + nw.pathDelay(b, a)
}

// PathBandwidth returns the bottleneck bandwidth along the shortest path.
func (nw *Network) PathBandwidth(a, b string) float64 {
	hops := nw.PathLinks(a, b)
	if len(hops) == 0 {
		return 0
	}
	bw := hops[0].Bandwidth
	for _, l := range hops[1:] {
		if l.Bandwidth < bw {
			bw = l.Bandwidth
		}
	}
	return bw
}

// PathLoss returns the combined per-packet loss probability along the path.
func (nw *Network) PathLoss(a, b string) float64 {
	keep := 1.0
	for _, l := range nw.PathLinks(a, b) {
		keep *= 1 - l.LossProb
	}
	return 1 - keep
}

// PathLinks returns the links on the shortest path from a to b.
func (nw *Network) PathLinks(a, b string) []*Link {
	var out []*Link
	at := a
	for at != b {
		next := nw.NextHop(at, b)
		if next == "" {
			return nil
		}
		out = append(out, nw.links[linkKey(at, next)])
		at = next
	}
	return out
}

func (nw *Network) pathDelay(a, b string) sim.Duration {
	var d sim.Duration
	for _, l := range nw.PathLinks(a, b) {
		d += l.Delay
	}
	return d
}
