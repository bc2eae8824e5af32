package cost

import (
	"math"
	"testing"
)

func TestPaperRackShape(t *testing.T) {
	r := PaperRack()
	if r.Cores() != 312 {
		t.Fatalf("cores = %d, want 312 (39×8)", r.Cores())
	}
	raw := float64(r.Servers) * r.DiskTBPerServer
	if raw != 312 {
		t.Fatalf("raw disk = %v TB, want 312", raw)
	}
	if r.UsableTB() >= raw || r.UsableTB() <= raw/3 {
		t.Fatalf("usable = %v TB, want between raw/3 and raw", r.UsableTB())
	}
}

func TestCrossoverNear80Percent(t *testing.T) {
	// §9.1: "at approximately 80% efficiency or greater, it is less
	// expensive than using Amazon for the same services."
	u := Crossover(PaperRack(), Defaults2012(), AWS2012())
	if u < 0.72 || u > 0.88 {
		t.Fatalf("crossover = %.2f, want ≈0.80", u)
	}
}

func TestCheaperAboveCrossoverDearerBelow(t *testing.T) {
	rack, costs, aws := PaperRack(), Defaults2012(), AWS2012()
	u := Crossover(rack, costs, aws)
	below := Compare(rack, costs, aws, u*0.8)
	above := Compare(rack, costs, aws, math.Min(u*1.15, 1.0))
	if below.OSDCCheaper {
		t.Fatalf("OSDC cheaper at %.2f utilization, below crossover", below.Utilization)
	}
	if !above.OSDCCheaper {
		t.Fatalf("OSDC not cheaper at %.2f utilization, above crossover", above.Utilization)
	}
}

func TestRackAnnualIndependentOfUtilization(t *testing.T) {
	rack, costs, aws := PaperRack(), Defaults2012(), AWS2012()
	a := Compare(rack, costs, aws, 0.2)
	b := Compare(rack, costs, aws, 0.9)
	if a.RackAnnual != b.RackAnnual {
		t.Fatal("rack cost must be fixed")
	}
	if a.AWSEquivalent >= b.AWSEquivalent {
		t.Fatal("AWS-equivalent cost must grow with consumption")
	}
}

func TestEffectivePerCoreHourFallsWithUtilization(t *testing.T) {
	rack, costs, aws := PaperRack(), Defaults2012(), AWS2012()
	lo := Compare(rack, costs, aws, 0.3)
	hi := Compare(rack, costs, aws, 0.95)
	if lo.RackPerCoreHr <= hi.RackPerCoreHr {
		t.Fatal("per-core-hour cost must fall as utilization rises")
	}
	// At high utilization the rack beats AWS per-core pricing.
	if hi.RackPerCoreHr >= aws.PerCoreHour*1.6 {
		t.Fatalf("rack $/core-hr at 95%% = %v, not competitive", hi.RackPerCoreHr)
	}
}

func TestSweepMonotonic(t *testing.T) {
	rack, costs, aws := PaperRack(), Defaults2012(), AWS2012()
	utils := []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0}
	sweep := Sweep(rack, costs, aws, utils)
	if len(sweep) != len(utils) {
		t.Fatal("sweep length")
	}
	flips := 0
	for i := 1; i < len(sweep); i++ {
		if sweep[i].OSDCCheaper && !sweep[i-1].OSDCCheaper {
			flips++
		}
		if !sweep[i].OSDCCheaper && sweep[i-1].OSDCCheaper {
			t.Fatal("OSDC became dearer as utilization rose")
		}
	}
	if flips != 1 {
		t.Fatalf("crossover flips = %d, want exactly 1", flips)
	}
}

func TestBadUtilizationPanics(t *testing.T) {
	for _, u := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("utilization %v accepted", u)
				}
			}()
			Compare(PaperRack(), Defaults2012(), AWS2012(), u)
		}()
	}
}
