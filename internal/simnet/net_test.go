package simnet

import (
	"math"
	"testing"

	"osdc/internal/sim"
)

func TestMultiHopRouting(t *testing.T) {
	nw := New()
	for _, n := range []string{"a", "m", "b"} {
		nw.AddNode(n)
	}
	nw.AddDuplex("a", "m", Gbit, 5*sim.Millisecond, 0)
	nw.AddDuplex("m", "b", Gbit, 7*sim.Millisecond, 0)
	if rtt := nw.PathRTT("a", "b"); math.Abs(rtt-0.024) > 1e-9 {
		t.Fatalf("PathRTT = %v, want 24 ms", rtt)
	}
}

func TestShortestPathPreferred(t *testing.T) {
	nw := New()
	for _, n := range []string{"a", "fast", "slow", "b"} {
		nw.AddNode(n)
	}
	nw.AddDuplex("a", "fast", Gbit, 1*sim.Millisecond, 0)
	nw.AddDuplex("fast", "b", Gbit, 1*sim.Millisecond, 0)
	nw.AddDuplex("a", "slow", Gbit, 50*sim.Millisecond, 0)
	nw.AddDuplex("slow", "b", Gbit, 50*sim.Millisecond, 0)
	if hop := nw.NextHop("a", "b"); hop != "fast" {
		t.Fatalf("NextHop = %q, want fast", hop)
	}
	links := nw.PathLinks("a", "b")
	if len(links) != 2 {
		t.Fatalf("path has %d links, want 2", len(links))
	}
}

func TestPathBandwidthBottleneck(t *testing.T) {
	nw := New()
	for _, n := range []string{"a", "m", "b"} {
		nw.AddNode(n)
	}
	nw.AddDuplex("a", "m", 10*Gbit, sim.Millisecond, 0)
	nw.AddDuplex("m", "b", Gbit, sim.Millisecond, 0)
	if bw := nw.PathBandwidth("a", "b"); bw != Gbit {
		t.Fatalf("PathBandwidth = %v, want 1 Gbit", bw)
	}
}

func TestPathLossCompounds(t *testing.T) {
	nw := New()
	for _, n := range []string{"a", "m", "b"} {
		nw.AddNode(n)
	}
	nw.AddDuplex("a", "m", Gbit, 0, 0.1)
	nw.AddDuplex("m", "b", Gbit, 0, 0.1)
	want := 1 - 0.9*0.9
	if got := nw.PathLoss("a", "b"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PathLoss = %v, want %v", got, want)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	nw := New()
	nw.AddNode("a")
	nw.AddNode("a")
}

func TestOSDCTopologyRTTs(t *testing.T) {
	nw := BuildOSDCTopology(DefaultWAN())
	AttachHost(nw, "host-chi", SiteChicagoKenwood)
	AttachHost(nw, "host-lvoc", SiteLVOC)
	rtt := nw.PathRTT("host-chi", "host-lvoc")
	// Paper Table 3: 104 ms RTT Chicago↔LVOC (plus negligible LAN hops).
	if rtt < 0.1035 || rtt > 0.1045 {
		t.Fatalf("Chicago-LVOC RTT = %v, want ~104 ms", rtt)
	}
	if bw := nw.PathBandwidth("host-chi", "host-lvoc"); bw != 10*Gbit {
		t.Fatalf("path bandwidth = %v, want 10 Gbit", bw)
	}
}

func TestOSDCTopologyAllSitesReachable(t *testing.T) {
	nw := BuildOSDCTopology(DefaultWAN())
	sites := []string{SiteChicagoKenwood, SiteChicagoNU, SiteLVOC, SiteAMPATH}
	for _, s := range sites {
		AttachHost(nw, "h-"+s, s)
	}
	for _, a := range sites {
		for _, b := range sites {
			if a == b {
				continue
			}
			if nw.NextHop("h-"+a, "h-"+b) == "" {
				t.Fatalf("no route %s -> %s", a, b)
			}
		}
	}
}
