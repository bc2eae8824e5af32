package simnet

import "osdc/internal/sim"

// The OSDC's physical footprint (paper §1, §7.2, Figure 3): two data centers
// in Chicago, one at the Livermore Valley Open Campus (LVOC), and one at the
// AMPATH facility in Miami, joined by 10G research networks (StarLight).
// The paper's Table 3 measured Chicago↔LVOC at a 104 ms round-trip time.

// Site names used across the repository.
const (
	SiteChicagoKenwood = "chicago-kenwood" // hosts OSDC-Adler, OSDC-Root
	SiteChicagoNU      = "chicago-nu"      // hosts OSDC-Sullivan, OCC-Y
	SiteLVOC           = "lvoc"            // Livermore Valley Open Campus
	SiteAMPATH         = "ampath-miami"    // AMPATH, Miami (OCC-Matsu)
	SiteStarLight      = "starlight"       // exchange point joining the sites
)

// WANParams configures the OSDC wide-area topology.
type WANParams struct {
	Backbone float64      // backbone bandwidth, bits/s
	ChiLVOC  sim.Duration // one-way Chicago→LVOC propagation delay
	ChiMiami sim.Duration // one-way Chicago→Miami propagation delay
	ChiChi   sim.Duration // one-way metro Chicago↔Chicago delay
	Loss     float64      // per-packet loss probability on WAN links
}

// DefaultWAN matches the paper: 10G links; 104 ms RTT Chicago↔LVOC (so a
// 52 ms one-way path: 0.05 ms LAN + 0.75 ms metro + 51.15 ms long-haul +
// 0.05 ms LAN); ~18 ms RTT Chicago↔Miami. Loss is the residual loss of a
// clean research WAN.
func DefaultWAN() WANParams {
	return WANParams{
		Backbone: 10 * Gbit,
		ChiLVOC:  51.15 * sim.Millisecond,
		ChiMiami: 8 * sim.Millisecond,
		ChiChi:   0.75 * sim.Millisecond,
		// Residual per-link loss. The paper's Table 3 throughputs are
		// identical for 108 GB and 1.1 TB transfers, which means the
		// production path was effectively clean: host-side limits (socket
		// buffers, cipher CPU) bound the rates, not congestion recovery.
		Loss: 1e-9,
	}
}

// BuildOSDCTopology wires the four-site OSDC WAN with one gateway node per
// site joined through the StarLight exchange, and returns the network.
// Additional hosts should be attached to site gateways with AttachHost.
func BuildOSDCTopology(p WANParams) *Network {
	nw := New()
	for _, site := range []string{SiteChicagoKenwood, SiteChicagoNU, SiteLVOC, SiteAMPATH, SiteStarLight} {
		nw.AddNode("gw-" + site)
	}
	// Chicago sites reach StarLight over metro fiber; LVOC and AMPATH over
	// long-haul circuits. Delays chosen so the paper's measured RTTs hold.
	nw.AddDuplex("gw-"+SiteChicagoKenwood, "gw-"+SiteStarLight, p.Backbone, p.ChiChi, p.Loss)
	nw.AddDuplex("gw-"+SiteChicagoNU, "gw-"+SiteStarLight, p.Backbone, p.ChiChi, p.Loss)
	nw.AddDuplex("gw-"+SiteLVOC, "gw-"+SiteStarLight, p.Backbone, p.ChiLVOC, p.Loss)
	nw.AddDuplex("gw-"+SiteAMPATH, "gw-"+SiteStarLight, p.Backbone, p.ChiMiami, p.Loss)
	return nw
}

// AttachHost adds a host at a site, connected to the site gateway by a LAN
// link (10G, 50 µs, lossless).
func AttachHost(nw *Network, name, site string) {
	nw.AddNode(name)
	nw.AddDuplex(name, "gw-"+site, 10*Gbit, 50*sim.Microsecond, 0)
}

// Gateway returns the gateway node name for a site.
func Gateway(site string) string { return "gw-" + site }
