// Package experiments regenerates every table and figure in the paper's
// evaluation. Each experiment returns a structured result plus a formatted
// rendition matching the paper's presentation; cmd/osdc-bench and the
// repository-root benchmarks are thin wrappers over these functions.
//
// Index (see DESIGN.md §3):
//
//	Table1   — commercial vs science CSP traffic characterization
//	Table2   — OCC resource inventory
//	Table3   — UDR vs rsync transfer matrix (the paper's headline numbers)
//	Figure1  — Tukey end-to-end over live HTTP
//	Figure2  — Matsu flood detection tile map
//	Figure3  — federation topology
//	Cost     — §9.1 utilization crossover sweep
//	Provision— §7.3 manual vs automated rack install
//	Billing  — §6.4 a month of metering
package experiments

import (
	"fmt"
	"strings"

	"osdc/internal/cipher"
	"osdc/internal/core"
	"osdc/internal/cost"
	"osdc/internal/matsu"
	"osdc/internal/provision"
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

// PaperTable3 returns the paper's measured values for EXPERIMENTS.md
// comparison, in the same row order as Table3.
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

// Table3 runs the full transfer matrix. Sizes in bytes default to the
// paper's 108 GB and 1.1 TB.
func Table3(seed uint64) []Table3Row {
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

// FormatTable3 renders rows the way the paper prints Table 3.
func FormatTable3(rows []Table3Row) string {
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

// Table1Result contrasts the two CSP traffic classes.
type Table1Result struct {
	Web     workload.Stats
	Science workload.Stats
}

// Table1 generates and characterizes both traffic classes.
func Table1(seed uint64) Table1Result {
	rng := sim.NewRNG(seed)
	p := workload.DefaultParams()
	return Table1Result{
		Web:     workload.Characterize(workload.Generate(rng, workload.ClassWeb, p)),
		Science: workload.Characterize(workload.Generate(rng, workload.ClassScience, p)),
	}
}

// FormatTable1 renders the measured contrast alongside the paper's
// qualitative rows.
func FormatTable1(r Table1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "", "Commercial CSP", "Science CSP")
	fmt.Fprintln(&b, strings.Repeat("-", 86))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Flows",
		fmt.Sprintf("lots of small web flows (med %s)", humanBytes(r.Web.MedianBytes)),
		fmt.Sprintf("large in+out data flows (med %s)", humanBytes(r.Science.MedianBytes)))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Elephants",
		fmt.Sprintf("%.1f%% of bytes in ≥1GB flows", 100*r.Web.ElephantShare),
		fmt.Sprintf("%.1f%% of bytes in ≥1GB flows", 100*r.Science.ElephantShare))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Direction",
		fmt.Sprintf("%.0f%% bytes incoming (responses out)", 100*r.Web.IncomingShare),
		fmt.Sprintf("%.0f%% bytes incoming (symmetric)", 100*r.Science.IncomingShare))
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Accounting", "essential", "essential (per-minute core polls)")
	fmt.Fprintf(&b, "%-12s | %-34s | %-34s\n", "Lock in", "lock in is good", "portable images, UDR export")
	return b.String()
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Table2 builds the federation and returns the inventory.
func Table2(seed uint64) ([]core.InventoryRow, int, int64, error) {
	f, err := core.New(core.Options{Seed: seed, Scale: 8})
	if err != nil {
		return nil, 0, 0, err
	}
	rows := f.Inventory()
	cores, disk := f.Totals()
	return rows, cores, disk, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []core.InventoryRow, cores int, diskTB int64) string {
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
	fmt.Fprintf(&b, "TOTAL: %d cores, %.1f PB\n", cores, float64(diskTB)/1024)
	return b.String()
}

// Figure2Result is the Matsu run.
type Figure2Result struct {
	TileMap     string
	FloodTiles  int
	TotalTiles  int
	FloodKm2    float64
	Alerts      int
	JobDuration sim.Duration
	Locality    float64
}

// Figure2 synthesizes a Hyperion-like scene over Namibia, processes
// L0→L1, and runs flood detection on the OCC-Matsu MapReduce cluster.
func Figure2(seed uint64, w, h int) (Figure2Result, error) {
	f, err := core.New(core.Options{Seed: seed, Scale: 8})
	if err != nil {
		return Figure2Result{}, err
	}
	rng := sim.NewRNG(seed)
	raw := matsu.SynthesizeScene(rng, "EO1-HYP-NAMIBIA", matsu.SynthSpec{
		W: w, H: h, FloodFrac: 0.22, FireSpots: 3, NoiseSigma: 20,
	})
	l1 := matsu.CalibrateL0ToL1(raw)
	res, tiles, err := matsu.RunOnCluster(f.Matsu, l1, 32)
	if err != nil {
		return Figure2Result{}, err
	}
	out := Figure2Result{
		TileMap: matsu.TileMap(tiles), TotalTiles: len(tiles),
		FloodKm2: matsu.FloodArea(tiles), Alerts: matsu.Alerts(tiles),
		JobDuration: res.Duration(), Locality: res.LocalityFraction(),
	}
	for _, t := range tiles {
		if t.Flooded {
			out.FloodTiles++
		}
	}
	return out, nil
}

// Figure3 renders the federation wiring.
func Figure3(seed uint64) (string, error) {
	f, err := core.New(core.Options{Seed: seed, Scale: 8})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-18s %-12s %s\n", "Cluster", "Site", "Stack", "Tukey")
	fmt.Fprintln(&b, strings.Repeat("-", 60))
	for _, r := range f.Topology() {
		arrow := "partial (some services)"
		if r.FullTukey {
			arrow = "solid (fully operational)"
		}
		fmt.Fprintf(&b, "%-16s %-18s %-12s %s\n", r.Cluster, r.Site, r.Stack, arrow)
	}
	return b.String(), nil
}

// CostSweepResult is the §9.1 sweep.
type CostSweepResult struct {
	Rows      []cost.Comparison
	Crossover float64
}

// CostSweep runs the utilization sweep.
func CostSweep() CostSweepResult {
	rack, costs, aws := cost.PaperRack(), cost.Defaults2012(), cost.AWS2012()
	utils := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return CostSweepResult{
		Rows:      cost.Sweep(rack, costs, aws, utils),
		Crossover: cost.Crossover(rack, costs, aws),
	}
}

// FormatCostSweep renders the sweep.
func FormatCostSweep(r CostSweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-16s %-12s %s\n", "Utilization", "Rack $/yr", "AWS-equiv $/yr", "$/core-hr", "Cheaper")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	for _, row := range r.Rows {
		who := "AWS"
		if row.OSDCCheaper {
			who = "OSDC"
		}
		fmt.Fprintf(&b, "%-12.0f %-14.0f %-16.0f %-12.4f %s\n",
			row.Utilization*100, row.RackAnnual, row.AWSEquivalent, row.RackPerCoreHr, who)
	}
	fmt.Fprintf(&b, "crossover at %.0f%% utilization (paper: ~80%%)\n", r.Crossover*100)
	return b.String()
}

// ProvisionResult is the §7.3 comparison.
type ProvisionResult struct {
	AutomatedDur sim.Duration
	ManualDur    sim.Duration
	Speedup      float64
	Retries      int
}

// Provisioning compares the automated pipeline to the manual install for a
// 39-server rack.
func Provisioning(seed uint64) ProvisionResult {
	e := sim.NewEngine(seed)
	p := provision.NewPipeline(e, provision.DefaultDurations(), 16, 0.02)
	rack := provision.ProvisionRack(e, p, 39)
	manual := provision.ManualRackTime(provision.DefaultManual(), 39)
	return ProvisionResult{
		AutomatedDur: rack.Duration, ManualDur: manual,
		Speedup: manual / rack.Duration, Retries: rack.Retries,
	}
}

// FormatProvisioning renders the comparison.
func FormatProvisioning(r ProvisionResult) string {
	return fmt.Sprintf(
		"manual first rack install : %v  (paper: \"over a week\")\n"+
			"automated PXE/IPMI/Chef   : %v  (paper: \"much less than a day\")\n"+
			"speedup                   : %.1fx  (transient failures retried: %d)\n",
		sim.Time(r.ManualDur), sim.Time(r.AutomatedDur), r.Speedup, r.Retries)
}

// CipherSanity verifies the real cipher round trips used in Table 3 and
// reports the modeled throughput caps.
func CipherSanity() (string, error) {
	msg := []byte("OSDC cipher self-test: Chicago to Livermore, 104 ms away")
	var b strings.Builder
	for _, name := range []cipher.Name{cipher.None, cipher.Blowfish, cipher.TripleDES} {
		enc, err := cipher.NewStream(name, []byte("bench-key"), []byte("iv"))
		if err != nil {
			return "", err
		}
		dec, err := cipher.NewStream(name, []byte("bench-key"), []byte("iv"))
		if err != nil {
			return "", err
		}
		ct := make([]byte, len(msg))
		enc.Process(ct, msg)
		pt := make([]byte, len(ct))
		dec.Process(pt, ct)
		if string(pt) != string(msg) {
			return "", fmt.Errorf("cipher %s failed round trip", name)
		}
		fmt.Fprintf(&b, "%-10s udr-cap=%5.0f mbit/s  ssh-cap=%5.0f mbit/s\n", name,
			cipher.ThroughputBps(name, cipher.ImplUDR)/1e6,
			cipher.ThroughputBps(name, cipher.ImplSSH)/1e6)
	}
	return b.String(), nil
}
