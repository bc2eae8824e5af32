// Package experiments holds every scenario this repository registers: the
// paper's tables and figures, and the runs that go beyond the paper. Each
// run function takes a seed and builds its scenario.Result directly —
// named metrics plus the paper-style table — and scenarios.go registers
// it; cmd/osdc-bench runs them through the scenario registry, and its
// ledger checks the paper's claims against their goldens.
//
// The paper's evaluation (see DESIGN.md §3), by scenario name:
//
//	table1     Table1       — commercial vs science CSP traffic characterization
//	table2     Table2       — OCC resource inventory
//	table3     Table3       — UDR vs rsync transfer matrix (the paper's headline numbers)
//	fig1       Figure1      — Tukey end-to-end over live HTTP
//	fig2       Figure2      — Matsu flood detection tile map
//	fig3       Figure3      — federation topology
//	cost       CostSweep    — §9.1 utilization crossover sweep
//	provision  Provisioning — §7.3 manual vs automated rack install
//	ciphers    Ciphers      — cipher round trips and Table 3's throughput caps
package experiments

import (
	"fmt"
	"strings"

	"osdc/internal/cipher"
	"osdc/internal/core"
	"osdc/internal/cost"
	"osdc/internal/matsu"
	"osdc/internal/provision"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/simnet"
	"osdc/internal/transport"
	"osdc/internal/udr"
	"osdc/internal/workload"
)

// Table3Row is one row of Table 3 for one dataset size.
type Table3Row struct {
	Config  udr.Config
	Mbit108 float64 // 108 GB dataset
	LLR108  float64
	Mbit1T  float64 // 1.1 TB dataset
	LLR1T   float64
}

// PaperTable3 returns the paper's measured values, in the same row order
// as table3Rows: the table3 scenario prints them beside its own, and
// cmd/osdc-bench's ledger quotes them.
func PaperTable3() []Table3Row {
	cfgs := udr.Table3Configs()
	vals := [][4]float64{
		{752, 0.66, 738, 0.64},
		{401, 0.35, 405, 0.36},
		{394, 0.35, 396, 0.35},
		{280, 0.25, 281, 0.25},
		{284, 0.25, 285, 0.25},
	}
	out := make([]Table3Row, len(cfgs))
	for i, c := range cfgs {
		out[i] = Table3Row{Config: c, Mbit108: vals[i][0], LLR108: vals[i][1],
			Mbit1T: vals[i][2], LLR1T: vals[i][3]}
	}
	return out
}

// ChicagoLVOCPath builds the measured path of §7.2: Chicago ↔ LVOC,
// 104 ms RTT over 10G. The topology is static, so every seed gives the
// same path.
func ChicagoLVOCPath(seed uint64) transport.Path {
	nw := simnet.BuildOSDCTopology(simnet.DefaultWAN())
	simnet.AttachHost(nw, "adler-xfer", simnet.SiteChicagoKenwood)
	simnet.AttachHost(nw, "lvoc-xfer", simnet.SiteLVOC)
	return transport.PathBetween(nw, "adler-xfer", "lvoc-xfer")
}

// table3Rows runs the full transfer matrix at the paper's 108 GB and
// 1.1 TB.
func table3Rows(seed uint64) []Table3Row {
	path := ChicagoLVOCPath(seed)
	rng := sim.NewRNG(seed)
	const size108 = 108 << 30
	const size1T = int64(11) << 40 / 10 // 1.1 TB
	var rows []Table3Row
	for _, cfg := range udr.Table3Configs() {
		r108, caps := udr.Transfer(rng, cfg, path, size108)
		r1t, _ := udr.Transfer(rng, cfg, path, size1T)
		rows = append(rows, Table3Row{
			Config:  cfg,
			Mbit108: r108.ThroughputMbit(), LLR108: r108.LLR(caps),
			Mbit1T: r1t.ThroughputMbit(), LLR1T: r1t.LLR(caps),
		})
	}
	return rows
}

// formatTable3 renders rows the way the paper prints Table 3.
func formatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s | %-16s | %-16s\n", "", "108 GB Data Set", "1.1 TB Data Set")
	fmt.Fprintf(&b, "%-24s | %8s %7s | %8s %7s\n", "", "mbit/s", "LLR", "mbit/s", "LLR")
	fmt.Fprintln(&b, strings.Repeat("-", 64))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s | %8.0f %7.2f | %8.0f %7.2f\n",
			r.Config.String(), r.Mbit108, r.LLR108, r.Mbit1T, r.LLR1T)
	}
	return b.String()
}

// Table3 runs the transfer matrix and prints it above the paper's.
func Table3(seed uint64) (scenario.Result, error) {
	rows := table3Rows(seed)
	metrics := map[string]float64{}
	for _, r := range rows {
		metrics["mbit-108GB["+r.Config.String()+"]"] = r.Mbit108
		metrics["llr-108GB["+r.Config.String()+"]"] = r.LLR108
		metrics["mbit-1.1TB["+r.Config.String()+"]"] = r.Mbit1T
	}
	table := "measured (this reproduction):\n" + formatTable3(rows) +
		"\npaper (Grossman et al. 2012, Table 3):\n" + formatTable3(PaperTable3())
	return scenario.Result{Metrics: metrics, Table: table}, nil
}

// Table1 generates both traffic classes and contrasts them beside the
// paper's qualitative rows.
func Table1(seed uint64) (scenario.Result, error) {
	rng := sim.NewRNG(seed)
	p := workload.DefaultParams()
	web := workload.Sample(rng, workload.ClassWeb, p)
	sci := workload.Sample(rng, workload.ClassScience, p)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "", "Commercial CSP", "Science CSP")
	fmt.Fprintln(&b, strings.Repeat("-", 86))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Flows",
		fmt.Sprintf("lots of small web flows (med %s)", workload.HumanBytes(web.MedianBytes)),
		fmt.Sprintf("large in+out data flows (med %s)", workload.HumanBytes(sci.MedianBytes)))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Elephants",
		fmt.Sprintf("%.1f%% of bytes in ≥1GB flows", 100*web.ElephantShare),
		fmt.Sprintf("%.1f%% of bytes in ≥1GB flows", 100*sci.ElephantShare))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Direction",
		fmt.Sprintf("%.0f%% bytes incoming (responses out)", 100*web.IncomingShare),
		fmt.Sprintf("%.0f%% bytes incoming (symmetric)", 100*sci.IncomingShare))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Accounting", "essential", "essential (per-minute core polls)")
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Lock in", "lock in is good", "portable images, UDR export")
	return scenario.Result{
		Metrics: map[string]float64{
			"web-median-bytes":       float64(web.MedianBytes),
			"web-elephant-share":     web.ElephantShare,
			"web-incoming-share":     web.IncomingShare,
			"science-median-bytes":   float64(sci.MedianBytes),
			"science-elephant-share": sci.ElephantShare,
			"science-incoming-share": sci.IncomingShare,
		},
		Table: b.String(),
	}, nil
}

// Table2 prints the inventory. Its sizes are the paper's, so every seed
// gives the same table.
func Table2(uint64) (scenario.Result, error) {
	rows := core.Inventory()
	cores, disk := core.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-46s %s\n", "Resource", "Type", "Size")
	fmt.Fprintln(&b, strings.Repeat("-", 92))
	for _, r := range rows {
		size := fmt.Sprintf("%d TB disk", r.DiskTB)
		if r.Cores > 0 {
			size = fmt.Sprintf("%d cores and %d TB disk", r.Cores, r.DiskTB)
		}
		fmt.Fprintf(&b, "%-24s %-46s %s\n", r.Resource, r.Type, size)
	}
	fmt.Fprintf(&b, "TOTAL: %d cores, %.1f PB\n", cores, float64(disk)/1024)
	return scenario.Result{
		Metrics: map[string]float64{
			"resources": float64(len(rows)),
			"cores":     float64(cores),
			"disk-TB":   float64(disk),
		},
		Table: b.String(),
	}, nil
}

// Figure2 synthesizes a 256×256 Hyperion-like scene over Namibia,
// processes L0→L1, and runs flood detection on the OCC-Matsu MapReduce
// cluster.
func Figure2(seed uint64) (scenario.Result, error) {
	f, err := core.New(core.Options{Seed: seed, Scale: 8})
	if err != nil {
		return scenario.Result{}, err
	}
	rng := sim.NewRNG(seed)
	raw := matsu.SynthesizeScene(rng, "EO1-HYP-NAMIBIA", matsu.SynthSpec{
		W: 256, H: 256, FloodFrac: 0.22, FireSpots: 3, NoiseSigma: 20,
	})
	res, tiles, err := matsu.RunOnCluster(f.Matsu, matsu.CalibrateL0ToL1(raw), 32)
	if err != nil {
		return scenario.Result{}, err
	}
	flooded := 0
	for _, t := range tiles {
		if t.Flooded {
			flooded++
		}
	}
	km2, alerts := matsu.FloodArea(tiles), matsu.Alerts(tiles)
	table := fmt.Sprintf("EO-1 Hyperion tiles over Namibia (≈ flood, ^ fire, . clear):\n%s"+
		"flooded tiles: %d/%d (%.2f km²), alerts: %d\n"+
		"mapreduce job: %v on OCC-Matsu, %.0f%% data-local maps\n",
		matsu.TileMap(tiles), flooded, len(tiles), km2, alerts,
		sim.Time(res.Duration()), 100*res.LocalityFraction())
	return scenario.Result{
		Metrics: map[string]float64{
			"flood-tiles":  float64(flooded),
			"total-tiles":  float64(len(tiles)),
			"flood-km2":    km2,
			"alerts":       float64(alerts),
			"job-seconds":  res.Duration(),
			"map-locality": res.LocalityFraction(),
		},
		Table: table,
	}, nil
}

// Figure3 prints the federation's wiring.
func Figure3(uint64) (scenario.Result, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-18s %-12s %s\n", "Cluster", "Site", "Stack", "Tukey")
	fmt.Fprintln(&b, strings.Repeat("-", 60))
	rows, full := core.Wiring(), 0
	for _, r := range rows {
		arrow := "partial (some services)"
		if r.FullTukey {
			arrow = "solid (fully operational)"
			full++
		}
		fmt.Fprintf(&b, "%-16s %-18s %-12s %s\n", r.Cluster, r.Site, r.Stack, arrow)
	}
	return scenario.Result{
		Metrics: map[string]float64{"clusters": float64(len(rows)), "full-tukey": float64(full)},
		Table:   b.String(),
	}, nil
}

// CostSweep compares the paper's rack with AWS at utilizations 10 %–100 %.
func CostSweep(uint64) (scenario.Result, error) {
	rack, costs, aws := cost.PaperRack(), cost.Defaults2012(), cost.AWS2012()
	rows := cost.Sweep(rack, costs, aws, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
	crossover := cost.Crossover(rack, costs, aws)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-16s %-12s %s\n", "Utilization", "Rack $/yr", "AWS-equiv $/yr", "$/core-hr", "Cheaper")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	osdcCheaper := 0
	for _, row := range rows {
		who := "AWS"
		if row.OSDCCheaper {
			who = "OSDC"
			osdcCheaper++
		}
		fmt.Fprintf(&b, "%-12.0f %-14.0f %-16.0f %-12.4f %s\n",
			row.Utilization*100, row.RackAnnual, row.AWSEquivalent, row.RackPerCoreHr, who)
	}
	fmt.Fprintf(&b, "crossover at %.0f%% utilization (paper: ~80%%)\n", crossover*100)
	return scenario.Result{
		Metrics: map[string]float64{
			"crossover-utilization": crossover,
			"osdc-cheaper-points":   float64(osdcCheaper),
			"sweep-points":          float64(len(rows)),
		},
		Table: b.String(),
	}, nil
}

// Provisioning compares the automated pipeline to the manual install for a
// 39-server rack.
func Provisioning(seed uint64) (scenario.Result, error) {
	e := sim.NewEngine(seed)
	p := provision.NewPipeline(e, provision.DefaultDurations(), 16, 0.02)
	rack := provision.ProvisionRack(e, p, 39)
	manual := provision.ManualRackTime(provision.DefaultManual(), 39)
	speedup := manual / rack.Duration
	return scenario.Result{
		Metrics: map[string]float64{
			"automated-hours": rack.Duration / sim.Hour,
			"manual-days":     manual / sim.Day,
			"speedup":         speedup,
			"retries":         float64(rack.Retries),
		},
		Table: fmt.Sprintf(
			"manual first rack install : %v  (paper: \"over a week\")\n"+
				"automated PXE/IPMI/Chef   : %v  (paper: \"much less than a day\")\n"+
				"speedup                   : %.1fx  (transient failures retried: %d)\n",
			sim.Time(manual), sim.Time(rack.Duration), speedup, rack.Retries),
	}, nil
}

// Ciphers round-trips a message through each real cipher Table 3 uses
// and reports the modeled throughput caps.
func Ciphers(uint64) (scenario.Result, error) {
	msg := []byte("OSDC cipher self-test: Chicago to Livermore, 104 ms away")
	var b strings.Builder
	for _, name := range []cipher.Name{cipher.None, cipher.Blowfish, cipher.TripleDES} {
		enc, err := cipher.NewStream(name, []byte("bench-key"), []byte("iv"))
		if err != nil {
			return scenario.Result{}, err
		}
		dec, err := cipher.NewStream(name, []byte("bench-key"), []byte("iv"))
		if err != nil {
			return scenario.Result{}, err
		}
		ct := make([]byte, len(msg))
		enc.Process(ct, msg)
		pt := make([]byte, len(ct))
		dec.Process(pt, ct)
		if string(pt) != string(msg) {
			return scenario.Result{}, fmt.Errorf("cipher %s failed round trip", name)
		}
		fmt.Fprintf(&b, "%-10s udr-cap=%5.0f mbit/s  ssh-cap=%5.0f mbit/s\n", name,
			cipher.ThroughputBps(name, cipher.ImplUDR)/1e6,
			cipher.ThroughputBps(name, cipher.ImplSSH)/1e6)
	}
	metrics := map[string]float64{}
	for _, cfg := range udr.Table3Configs() {
		metrics["cap-mbit["+cfg.String()+"]"] = cfg.Caps().Min() / 1e6
	}
	return scenario.Result{Metrics: metrics, Table: b.String()}, nil
}
