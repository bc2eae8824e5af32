// Package cost implements the OSDC sustainability and cost model (paper
// §8, §9.1). The paper's rule of thumb: "when we operate an OSDC rack at
// approximately 80% efficiency or greater, it is less expensive than using
// Amazon for the same services."
//
// A rack is 39 servers, each with 8 cores and 8 TB of disk (§9.1 footnote).
// The model compares the rack's fixed annual cost against what the same
// consumed services (core-hours plus stored GB-months) would cost on
// 2012-era AWS on-demand pricing, as a function of rack utilization.
package cost

import (
	"fmt"
	"math"
)

// RackSpec is the paper's standard rack.
type RackSpec struct {
	Servers         int
	CoresPerServer  int
	DiskTBPerServer float64
}

// PaperRack returns the §9.1 rack: 39 servers × 8 cores × 8 TB.
func PaperRack() RackSpec {
	return RackSpec{Servers: 39, CoresPerServer: 8, DiskTBPerServer: 8}
}

// Cores returns total rack cores.
func (r RackSpec) Cores() int { return r.Servers * r.CoresPerServer }

// UsableTB returns storage after replication overhead (GlusterFS replica 2
// plus filesystem overhead leaves ~45% usable).
func (r RackSpec) UsableTB() float64 {
	return float64(r.Servers) * r.DiskTBPerServer * 0.45
}

// RackCosts is the rack's annual fixed cost structure in dollars. The OSDC
// runs on a fixed investment each year (§3.2 rule 7); automation (§8 rule
// 5) is what keeps Staff from dominating further.
type RackCosts struct {
	HardwareCapex   float64 // servers + switches, amortized over AmortYears
	AmortYears      float64
	PowerCooling    float64 // annual
	SpaceRent       float64 // annual
	NetworkTransit  float64 // annual share of the 10G research links
	StaffFTE        float64 // CSOC operations staff per rack
	StaffCostPerFTE float64
}

// Defaults2012 is the calibrated cost structure.
func Defaults2012() RackCosts {
	// Staff is the dominant term — the CSOC's operations and researcher
	// support (§2) — which is why §8 rule 5 pushes automation so hard.
	return RackCosts{
		HardwareCapex: 150_000, AmortYears: 3,
		PowerCooling: 14_000, SpaceRent: 12_000, NetworkTransit: 38_000,
		StaffFTE: 2.0, StaffCostPerFTE: 105_000,
	}
}

// Annual returns the rack's total annual cost.
func (c RackCosts) Annual() float64 {
	return c.HardwareCapex/c.AmortYears + c.PowerCooling + c.SpaceRent +
		c.NetworkTransit + c.StaffFTE*c.StaffCostPerFTE
}

// AWSPrices are 2012-era on-demand prices.
type AWSPrices struct {
	PerCoreHour  float64 // derived from m1.xlarge: $0.64/hr ÷ 8 cores
	S3PerGBMonth float64
}

// AWS2012 returns the published 2012 on-demand rates.
func AWS2012() AWSPrices {
	return AWSPrices{PerCoreHour: 0.080, S3PerGBMonth: 0.105}
}

const hoursPerYear = 8766

// Comparison is one point of the §9.1 utilization sweep.
type Comparison struct {
	Utilization   float64
	RackAnnual    float64 // fixed, independent of utilization
	AWSEquivalent float64 // cost of the same consumed services on AWS
	RackPerCoreHr float64 // effective $/core-hour delivered by the rack
	OSDCCheaper   bool
}

// Compare evaluates the rack against AWS at a given utilization in (0,1].
// Consumed services at utilization u: u × full-rack core-hours and u ×
// usable storage held for the year.
func Compare(rack RackSpec, costs RackCosts, aws AWSPrices, utilization float64) Comparison {
	if utilization <= 0 || utilization > 1 {
		panic(fmt.Sprintf("cost: utilization %v out of (0,1]", utilization))
	}
	coreHours := float64(rack.Cores()) * hoursPerYear * utilization
	gbMonths := rack.UsableTB() * 1024 * 12 * utilization
	awsCost := coreHours*aws.PerCoreHour + gbMonths*aws.S3PerGBMonth
	rackAnnual := costs.Annual()
	return Comparison{
		Utilization:   utilization,
		RackAnnual:    rackAnnual,
		AWSEquivalent: awsCost,
		RackPerCoreHr: rackAnnual / coreHours,
		OSDCCheaper:   rackAnnual < awsCost,
	}
}

// Crossover returns the utilization at which the rack and AWS cost the
// same: rackAnnual = u × awsFull. The paper's claim is ~0.8.
func Crossover(rack RackSpec, costs RackCosts, aws AWSPrices) float64 {
	full := Compare(rack, costs, aws, 1.0)
	u := full.RackAnnual / full.AWSEquivalent
	return math.Min(u, math.Inf(1))
}

// Sweep evaluates a range of utilizations for the benchmark table.
func Sweep(rack RackSpec, costs RackCosts, aws AWSPrices, utils []float64) []Comparison {
	out := make([]Comparison, 0, len(utils))
	for _, u := range utils {
		out = append(out, Compare(rack, costs, aws, u))
	}
	return out
}
