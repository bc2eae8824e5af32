package osdc

// Repository-root benchmarks. BenchmarkScenarios drives every registered
// scenario through the registry — one sub-benchmark per experiment, custom
// metrics carrying the paper-comparable numbers — so a new scenario gets a
// benchmark for free. The remaining benchmarks are the micro-level pieces
// the scenarios are built from (the rsync delta engine, the real ciphers,
// per-config Table 3 transfers, a month of metering). Run with:
//
//	go test -bench=. -benchmem

import (
	"math"
	"strings"
	"testing"

	"osdc/internal/billing"
	"osdc/internal/cipher"
	"osdc/internal/cloudapi"
	"osdc/internal/experiments"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/udr"
)

// BenchmarkScenarios regenerates every table and figure via the registry,
// reporting each scenario's metrics from the last iteration.
func BenchmarkScenarios(b *testing.B) {
	for _, s := range scenario.All() {
		b.Run(s.Name(), func(b *testing.B) {
			var last scenario.Result
			for i := 0; i < b.N; i++ {
				var err error
				last, err = s.Run(uint64(i) + 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(last.Metrics) == 0 {
				b.Fatalf("%s returned no metrics", s.Name())
			}
			for _, k := range last.MetricNames() {
				// ReportMetric rejects units containing whitespace; metric
				// keys like "mbit-108GB[udr (no encryption)]" carry spaces.
				b.ReportMetric(last.Metrics[k], strings.ReplaceAll(k, " ", "_"))
			}
		})
	}
}

// BenchmarkScenarioSweep measures the multi-seed runner itself: 16 seeds of
// the provisioning scenario fanned over the worker pool.
func BenchmarkScenarioSweep(b *testing.B) {
	s, ok := scenario.Get("provision")
	if !ok {
		b.Fatal("provision scenario not registered")
	}
	for i := 0; i < b.N; i++ {
		sr, err := scenario.Sweep(s, scenario.Seeds(uint64(i)+1, 16), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(sr.Metrics) == 0 {
			b.Fatal("sweep produced no aggregates")
		}
	}
}

// BenchmarkTable3Transfers regenerates the headline Table 3: one
// sub-benchmark per tool/cipher row, reporting mbit/s and LLR for the
// 108 GB dataset (the 1.1 TB column tracks it within a few percent; the
// full matrix is in cmd/osdc-bench -exp table3).
func BenchmarkTable3Transfers(b *testing.B) {
	path := experiments.ChicagoLVOCPath(2012)
	for _, cfg := range udr.Table3Configs() {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			interval := cfg.Controller(path).Interval()
			var mbit, llr, ticks float64
			for i := 0; i < b.N; i++ {
				rng := sim.NewRNG(uint64(i) + 7)
				res, caps := udr.Transfer(rng, cfg, path, 108<<30)
				mbit, llr = res.ThroughputMbit(), res.LLR(caps)
				// Only the last control interval is cut short (to the final
				// byte), so the duration rounds up to the interval count.
				ticks += math.Ceil(res.Duration / interval)
			}
			b.ReportMetric(mbit, "mbit/s")
			b.ReportMetric(llr, "LLR")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ticks, "ns/tick")
		})
	}
}

// BenchmarkTable3RsyncDeltaAlgorithm measures the real rsync rolling-
// checksum engine that gives UDR its interface (CPU-bound component of
// Table 3's tools).
func BenchmarkTable3RsyncDeltaAlgorithm(b *testing.B) {
	old := make([]byte, 4<<20)
	for i := range old {
		old[i] = byte(i * 31)
	}
	data := append([]byte(nil), old...)
	copy(data[2<<20:], []byte("EDITEDITEDIT"))
	sigs := udr.Signatures(old, udr.DefaultBlockSize)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := udr.ComputeDelta(sigs, udr.DefaultBlockSize, data)
		if d.LiteralBytes() > 4096 {
			b.Fatal("delta exploded")
		}
	}
}

// BenchmarkCipherThroughput measures the real ciphers backing Table 3's
// encrypted rows.
func BenchmarkCipherThroughput(b *testing.B) {
	buf := make([]byte, 1<<20)
	for _, name := range []cipher.Name{cipher.Blowfish, cipher.TripleDES} {
		name := name
		b.Run(string(name), func(b *testing.B) {
			s, err := cipher.NewStream(name, []byte("k"), []byte("iv"))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				s.Process(buf, buf)
			}
		})
	}
}

// BenchmarkSection64Billing simulates a month of per-minute metering over
// the two utility clouds.
func BenchmarkSection64Billing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(uint64(i) + 9)
		c := iaas.NewCloud(e, "adler", "openstack", "chicago")
		c.AddRack("r", 10)
		c.SetQuota("u", iaas.Quota{MaxInstances: 100, MaxCores: 1000})
		biller := billing.New(e, billing.DefaultRates(), []cloudapi.CloudAPI{cloudapi.NewLocal(c)}, nil)
		for v := 0; v < 8; v++ {
			if _, err := c.Launch("u", "vm", "m1.large", ""); err != nil {
				b.Fatal(err)
			}
		}
		e.RunFor(31 * sim.Day)
		invs := biller.Invoices("u")
		if len(invs) != 1 || invs[0].CoreHours < 20000 {
			b.Fatalf("invoice = %+v", invs)
		}
	}
}
