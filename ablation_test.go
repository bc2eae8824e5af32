package osdc

// Ablation benchmarks for the design choices DESIGN.md calls out: what
// happens to Table 3's story as path loss, socket buffers, and pipeline
// concurrency vary. These are not paper artifacts; they probe the model's
// sensitivity and the claims' robustness.

import (
	"fmt"
	"testing"

	"osdc/internal/dfs"
	"osdc/internal/provision"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/tcpmodel"
	"osdc/internal/transport"
	"osdc/internal/udt"
)

// BenchmarkAblationLossSweep shows the congestion-control contrast that
// buffer caps hide on the clean production path: as residual loss rises,
// Reno collapses like 1/sqrt(p) while UDT's DAIMD degrades gently. This is
// the regime where the UDT design (by the paper's own authors) earns its
// keep.
func BenchmarkAblationLossSweep(b *testing.B) {
	base := transport.Path{BandwidthBps: 10e9, RTT: 0.104, MSS: transport.DefaultMSS}
	for _, loss := range []float64{1e-7, 1e-6, 1e-5, 1e-4} {
		loss := loss
		b.Run(fmt.Sprintf("p=%.0e", loss), func(b *testing.B) {
			path := base
			path.Loss = loss
			var udtMb, tcpMb float64
			for i := 0; i < b.N; i++ {
				rng := sim.NewRNG(uint64(i) + 1)
				u := transport.Simulate(rng, path, udt.NewRateControl(path), 5<<30, transport.Caps{})
				r := transport.Simulate(rng, path, tcpmodel.NewReno(path, 0), 5<<30, transport.Caps{})
				udtMb, tcpMb = u.ThroughputMbit(), r.ThroughputMbit()
			}
			b.ReportMetric(udtMb, "udt-mbit/s")
			b.ReportMetric(tcpMb, "tcp-mbit/s")
			b.ReportMetric(udtMb/tcpMb, "udt/tcp-ratio")
		})
	}
}

// BenchmarkAblationSocketBuffer sweeps the TCP window cap: the knob that
// pins plain rsync at ~405 Mbit/s in Table 3. Doubling the 2012 default
// buffer would have roughly doubled rsync's row — the "TCP tuning" fix the
// UDT approach sidesteps.
func BenchmarkAblationSocketBuffer(b *testing.B) {
	path := transport.Path{BandwidthBps: 10e9, RTT: 0.104, Loss: 2e-9, MSS: transport.DefaultMSS}
	for _, bufMB := range []float64{1, 2.5, 5.27, 10, 16} {
		bufMB := bufMB
		b.Run(fmt.Sprintf("buf=%.2fMB", bufMB), func(b *testing.B) {
			var mb float64
			for i := 0; i < b.N; i++ {
				rng := sim.NewRNG(uint64(i) + 1)
				r := transport.Simulate(rng, path, tcpmodel.NewReno(path, int(bufMB*1e6)), 10<<30, transport.Caps{})
				mb = r.ThroughputMbit()
			}
			b.ReportMetric(mb, "mbit/s")
		})
	}
}

// BenchmarkAblationInstallSlots sweeps the provisioning pipeline's
// concurrent-install limit (apt-mirror bandwidth): the §7.3 "much less
// than a day" claim holds even with a badly undersized mirror.
func BenchmarkAblationInstallSlots(b *testing.B) {
	for _, slots := range []int{2, 4, 8, 16, 39} {
		slots := slots
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			var hours float64
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(uint64(i) + 1)
				p := provision.NewPipeline(e, provision.DefaultDurations(), slots, 0)
				res := provision.ProvisionRack(e, p, 39)
				hours = res.Duration / 3600
			}
			b.ReportMetric(hours, "rack-hours")
			if hours >= 24 {
				b.Fatalf("rack took %.1f h with %d slots; claim broken", hours, slots)
			}
		})
	}
}

// BenchmarkAblationDFSReplication measures the raw-capacity overhead and
// failure tolerance of replica-1/2/3 volumes holding the same logical data
// — the §3.2 sustainability trade (the OSDC ran replica 2 plus off-site
// backup rather than replica 3).
func BenchmarkAblationDFSReplication(b *testing.B) {
	for _, replica := range []int{1, 2, 3} {
		replica := replica
		b.Run(fmt.Sprintf("replica=%d", replica), func(b *testing.B) {
			var overhead, survival float64
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(uint64(i) + 1)
				bricks := make([]*dfs.Brick, 6)
				for j := range bricks {
					d := simdisk.New(fmt.Sprintf("d%d", j), 1<<40)
					bricks[j] = dfs.NewBrick(fmt.Sprintf("b%d", j), d)
				}
				vol, err := dfs.NewVolume(e, replica, dfs.Version33, bricks)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 120; k++ {
					if err := vol.Write(fmt.Sprintf("/f%d", k), make([]byte, 4096)); err != nil {
						b.Fatal(err)
					}
				}
				var raw int64
				for _, br := range vol.Bricks() {
					raw += br.Disk.Used()
				}
				overhead = float64(raw) / (120 * 4096)
				// Kill one brick; count surviving reads.
				vol.Bricks()[0].SetOnline(false)
				ok := 0
				for k := 0; k < 120; k++ {
					if _, err := vol.Read(fmt.Sprintf("/f%d", k)); err == nil {
						ok++
					}
				}
				survival = float64(ok) / 120 * 100
			}
			b.ReportMetric(overhead, "raw/logical")
			b.ReportMetric(survival, "survival-%")
		})
	}
}
