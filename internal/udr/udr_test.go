package udr

import (
	"math"
	"testing"

	"osdc/internal/cipher"
	"osdc/internal/sim"
	"osdc/internal/simnet"
	"osdc/internal/transport"
)

func chicagoLVOC() transport.Path {
	nw := simnet.BuildOSDCTopology(simnet.DefaultWAN())
	simnet.AttachHost(nw, "adler", simnet.SiteChicagoKenwood)
	simnet.AttachHost(nw, "lvoc1", simnet.SiteLVOC)
	return transport.PathBetween(nw, "adler", "lvoc1")
}

func TestTable3RowOrdering(t *testing.T) {
	path := chicagoLVOC()
	rng := sim.NewRNG(2012)
	const size = 108 << 30 // the 108 GB dataset
	speeds := map[Config]float64{}
	for _, cfg := range Table3Configs() {
		res, _ := Transfer(rng, cfg, path, size)
		speeds[cfg] = res.ThroughputMbit()
	}
	udrPlain := speeds[Config{ToolUDR, cipher.None}]
	rsyncPlain := speeds[Config{ToolRsync, cipher.None}]
	udrBF := speeds[Config{ToolUDR, cipher.Blowfish}]
	rsyncBF := speeds[Config{ToolRsync, cipher.Blowfish}]
	rsync3DES := speeds[Config{ToolRsync, cipher.TripleDES}]

	// Paper Table 3 orderings.
	if !(udrPlain > rsyncPlain && udrBF > rsyncBF) {
		t.Fatalf("UDR must beat rsync: %v", speeds)
	}
	if !(udrPlain > udrBF) {
		t.Fatalf("encryption must slow UDR: plain %.0f vs bf %.0f", udrPlain, udrBF)
	}
	// Paper: UDR plain ≈ 1.87× rsync plain.
	if ratio := udrPlain / rsyncPlain; ratio < 1.5 || ratio > 2.3 {
		t.Fatalf("UDR/rsync plain ratio = %.2f, want ~1.87", ratio)
	}
	// Paper: rsync blowfish ≈ rsync 3des (ssh window binds both).
	if math.Abs(rsyncBF-rsync3DES)/rsyncBF > 0.1 {
		t.Fatalf("encrypted rsync rows should be near-equal: bf=%.0f 3des=%.0f", rsyncBF, rsync3DES)
	}
}

func TestTable3AbsoluteBands(t *testing.T) {
	path := chicagoLVOC()
	rng := sim.NewRNG(7)
	const size = 20 << 30 // smaller size for test speed; rates are steady
	check := func(cfg Config, lo, hi float64) {
		res, caps := Transfer(rng, cfg, path, size)
		mb := res.ThroughputMbit()
		if mb < lo || mb > hi {
			t.Errorf("%s = %.0f Mbit/s, want [%v, %v]", cfg, mb, lo, hi)
		}
		llr := res.LLR(caps)
		if llr <= 0 || llr > 1 {
			t.Errorf("%s LLR = %.2f out of (0,1]", cfg, llr)
		}
	}
	check(Config{ToolUDR, cipher.None}, 700, 780)        // paper: 752/738
	check(Config{ToolRsync, cipher.None}, 380, 420)      // paper: 401/405
	check(Config{ToolUDR, cipher.Blowfish}, 370, 400)    // paper: 394/396
	check(Config{ToolRsync, cipher.Blowfish}, 255, 290)  // paper: 280/281
	check(Config{ToolRsync, cipher.TripleDES}, 255, 295) // paper: 284/285
}

func TestTransferSizeIndependence(t *testing.T) {
	// Paper: 108 GB and 1.1 TB give nearly identical speeds.
	path := chicagoLVOC()
	cfg := Config{ToolUDR, cipher.None}
	a, _ := Transfer(sim.NewRNG(1), cfg, path, 10<<30)
	b, _ := Transfer(sim.NewRNG(2), cfg, path, 100<<30)
	if math.Abs(a.ThroughputMbit()-b.ThroughputMbit())/a.ThroughputMbit() > 0.05 {
		t.Fatalf("speeds size-dependent: %.0f vs %.0f", a.ThroughputMbit(), b.ThroughputMbit())
	}
}
