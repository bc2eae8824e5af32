package cloudapi

import (
	"strconv"

	"osdc/internal/sim"
	"osdc/internal/telemetry"
)

// RegisterKernel contributes a sharded kernel's metrics to reg, one
// series per shard under a shard label: live event-queue depth (Pending),
// the monotonic fired-event count and the virtual clock — the observers
// the kernel already keeps, visible while the system runs instead of only
// in post-hoc scenario tables.
func RegisterKernel(reg *telemetry.Registry, set *sim.ShardSet) {
	for i := 0; i < set.K(); i++ {
		e, l := set.ShardAt(i), telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
		reg.GaugeFunc("osdc_engine_pending",
			"Live events queued on the simulation engine.",
			func() float64 { return float64(e.Pending()) }, l)
		reg.CounterFunc("osdc_engine_fired_total",
			"Events the simulation engine has executed.",
			func() float64 { return float64(e.Fired()) }, l)
		reg.GaugeFunc("osdc_engine_now_seconds",
			"The engine's virtual clock.",
			func() float64 { return float64(e.Now()) }, l)
	}
}

// RegisterClockSync contributes a clock coordinator's per-site skew,
// sync and error counts to reg. The site population is read at render
// time (SampleFunc), so sites attached after registration — or a
// coordinator started later, via the indirection fn — still appear.
func RegisterClockSync(reg *telemetry.Registry, coord func() *ClockCoordinator) {
	stats := func() []ClockSyncStatsRow {
		c := coord()
		if c == nil {
			return nil
		}
		rows := make([]ClockSyncStatsRow, 0, 4)
		for _, st := range c.Stats() {
			rows = append(rows, ClockSyncStatsRow{Site: st.Site, Stats: st})
		}
		return rows
	}
	sample := func(pick func(SkewStats) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			rows := stats()
			out := make([]telemetry.Sample, 0, len(rows))
			for _, row := range rows {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "site", Value: row.Site}},
					Value:  pick(row.Stats),
				})
			}
			return out
		}
	}
	reg.SampleFunc("osdc_clock_skew_seconds",
		"Last observed per-site clock skew (virtual seconds behind the coordinator).", "gauge",
		sample(func(s SkewStats) float64 { return s.LastSkew }))
	reg.SampleFunc("osdc_clock_max_skew_seconds",
		"Worst observed per-site clock skew.", "gauge",
		sample(func(s SkewStats) float64 { return s.MaxSkew }))
	reg.SampleFunc("osdc_clock_syncs_total",
		"Completed clock-sync push rounds per site.", "counter",
		sample(func(s SkewStats) float64 { return float64(s.Syncs) }))
	reg.SampleFunc("osdc_clock_sync_errors_total",
		"Failed clock reads or pushes per site.", "counter",
		sample(func(s SkewStats) float64 { return float64(s.Errors) }))
}

// ClockSyncStatsRow pairs a site name with its skew statistics.
type ClockSyncStatsRow struct {
	Site  string
	Stats SkewStats
}
