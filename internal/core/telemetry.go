package core

import (
	"sync/atomic"

	"osdc/internal/cloudapi"
	"osdc/internal/telemetry"
)

// RegisterTelemetry contributes the federation's service-plane sources to
// reg: kernel shards, biller sweeps, usage-monitor samples, the
// replication coordinator's links, and clock-sync skew. Sources that
// start later (replication, clock sync) are read through f at render
// time, so registration order against StartReplication/StartConsole
// does not matter — absent sources simply render no series.
//
// Per-cloud error families use SampleFunc because the polled cloud set
// changes when StartConsole swaps transports.
func (f *Federation) RegisterTelemetry(reg *telemetry.Registry) {
	cloudapi.RegisterKernel(reg, f.Set)

	// --- billing: per-minute VM sweeps (§6.1) ---
	reg.CounterFunc("osdc_billing_polls_total",
		"Completed per-minute billing VM sweeps.",
		func() float64 { return float64(atomic.LoadInt64(&f.Biller.Polls)) })
	reg.SampleFunc("osdc_billing_poll_errors_total",
		"Failed billing samples per polled cloud.", "counter",
		func() []telemetry.Sample { return perCloudSamples(f.Biller.PollErrorsByCloud()) })

	// --- usage monitor: Nagios-style resource sampling (§6.2) ---
	reg.SampleFunc("osdc_monitor_sample_errors_total",
		"Failed usage-monitor samples per polled cloud.", "counter",
		func() []telemetry.Sample { return perCloudSamples(f.UsageMon.SampleErrorsByCloud()) })

	// --- replication coordinator: the data plane's WAN view ---
	reg.GaugeFunc("osdc_replication_rounds",
		"Completed replication rounds.",
		func() float64 {
			if f.Replication == nil {
				return 0
			}
			return float64(f.Replication.Stats().Rounds)
		})
	reg.GaugeFunc("osdc_replication_bytes_moved",
		"Total bytes moved by the replication coordinator.",
		func() float64 {
			if f.Replication == nil {
				return 0
			}
			return float64(f.Replication.Stats().BytesMoved)
		})
	reg.GaugeFunc("osdc_replication_max_in_flight",
		"Most concurrent in-flight replica transfers observed.",
		func() float64 {
			if f.Replication == nil {
				return 0
			}
			return float64(f.Replication.Stats().MaxInFlight)
		})
	linkSample := func(pick func(telemetryLink) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			if f.Replication == nil {
				return nil
			}
			st := f.Replication.Stats()
			out := make([]telemetry.Sample, 0, len(st.Links))
			for _, l := range st.Links {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "link", Value: l.Link}},
					Value:  pick(telemetryLink{l.Flows, l.Bytes, l.Retransmits}),
				})
			}
			return out
		}
	}
	reg.SampleFunc("osdc_replication_link_bytes_total",
		"Bytes replicated per WAN link.", "counter",
		linkSample(func(l telemetryLink) float64 { return float64(l.bytes) }))
	reg.SampleFunc("osdc_replication_link_retransmits_total",
		"Retransmitted transfers per WAN link.", "counter",
		linkSample(func(l telemetryLink) float64 { return float64(l.retransmits) }))
	reg.SampleFunc("osdc_replication_link_flows_total",
		"Completed flows per WAN link.", "counter",
		linkSample(func(l telemetryLink) float64 { return float64(l.flows) }))

	// --- clock sync: read through f so a coordinator started after
	// registration still shows up ---
	cloudapi.RegisterClockSync(reg, func() *cloudapi.ClockCoordinator { return f.ClockSync })
}

type telemetryLink struct {
	flows, bytes, retransmits int64
}

// perCloudSamples lifts a per-cloud counter map into label/value samples;
// the registry sorts lines at render time, so map order is irrelevant.
func perCloudSamples(m map[string]int64) []telemetry.Sample {
	out := make([]telemetry.Sample, 0, len(m))
	for cloud, v := range m {
		out = append(out, telemetry.Sample{
			Labels: []telemetry.Label{{Key: "cloud", Value: cloud}},
			Value:  float64(v),
		})
	}
	return out
}
