package matsu

import (
	"reflect"
	"strings"
	"testing"

	"osdc/internal/mapred"
	"osdc/internal/sim"
)

func synth(t *testing.T, spec SynthSpec) (*sim.RNG, *Scene) {
	t.Helper()
	rng := sim.NewRNG(101)
	return rng, SynthesizeScene(rng, "EO1-NAM-001", spec)
}

func TestSceneSynthesisBands(t *testing.T) {
	_, s := synth(t, SynthSpec{W: 128, H: 128, FloodFrac: 0.2, NoiseSigma: 30})
	if s.Level != 0 {
		t.Fatal("synthesized scene must be Level 0")
	}
	for b := Band(0); b < numBands; b++ {
		if len(s.Bands[b]) != 128*128 {
			t.Fatalf("band %d size wrong", b)
		}
	}
}

func TestCalibrationNormalizes(t *testing.T) {
	_, raw := synth(t, SynthSpec{W: 64, H: 64, FloodFrac: 0.2, NoiseSigma: 20})
	l1 := CalibrateL0ToL1(raw)
	if l1.Level != 1 {
		t.Fatal("not level 1")
	}
	for _, v := range l1.Bands[BandGreen] {
		if v < 0 || v > 1 {
			t.Fatalf("reflectance %v out of [0,1]", v)
		}
	}
	// Thermal stays physical.
	if l1.At(BandThermal, 0, 0) < 250 {
		t.Fatal("thermal band was wrongly normalized")
	}
	// Raw scene unmodified.
	if raw.Level != 0 || raw.At(BandGreen, 0, 0) <= 1 {
		t.Fatal("input scene mutated")
	}
}

func TestCalibrateRejectsL1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, raw := synth(t, SynthSpec{W: 8, H: 8})
	l1 := CalibrateL0ToL1(raw)
	CalibrateL0ToL1(l1)
}

func TestNDWISeparatesWaterFromLand(t *testing.T) {
	_, raw := synth(t, SynthSpec{W: 64, H: 64, FloodFrac: 0.3, NoiseSigma: 10})
	l1 := CalibrateL0ToL1(raw)
	// Center row is the river.
	water := NDWI(l1, 32, 32)
	land := NDWI(l1, 32, 2)
	if water <= FloodNDWIThreshold {
		t.Fatalf("water NDWI = %v, want > %v", water, FloodNDWIThreshold)
	}
	if land >= 0 {
		t.Fatalf("land NDWI = %v, want negative", land)
	}
}

func TestDetectTilesFindsFloodBand(t *testing.T) {
	_, raw := synth(t, SynthSpec{W: 256, H: 256, FloodFrac: 0.25, NoiseSigma: 20})
	l1 := CalibrateL0ToL1(raw)
	tiles := DetectTiles(l1, 32)
	if len(tiles) != 64 {
		t.Fatalf("tiles = %d, want 64", len(tiles))
	}
	flooded := 0
	for _, t := range tiles {
		if t.Flooded {
			flooded++
		}
	}
	// ~25% of rows are water → roughly 1-3 of 8 tile rows flood-dominated.
	if flooded < 8 || flooded > 32 {
		t.Fatalf("flooded tiles = %d of 64, want 8–32", flooded)
	}
}

func TestFireDetection(t *testing.T) {
	rng := sim.NewRNG(55)
	raw := SynthesizeScene(rng, "fire-scene", SynthSpec{W: 128, H: 128, FloodFrac: 0.05, FireSpots: 5, NoiseSigma: 10})
	l1 := CalibrateL0ToL1(raw)
	tiles := DetectTiles(l1, 32)
	fires, fireTiles, flooded := 0, 0, 0
	for _, t := range tiles {
		fires += t.FireCount
		if t.FireCount > 0 {
			fireTiles++
		}
		if t.Flooded {
			flooded++
		}
	}
	if fires == 0 {
		t.Fatal("no fire pixels detected despite 5 hot spots")
	}
	if n := Alerts(tiles); n != flooded+fireTiles {
		t.Fatalf("%d alerts for %d flooded and %d fire tiles", n, flooded, fireTiles)
	}
}

func TestNoFloodNoAlerts(t *testing.T) {
	rng := sim.NewRNG(56)
	raw := SynthesizeScene(rng, "dry", SynthSpec{W: 64, H: 64, FloodFrac: 0.0, NoiseSigma: 10})
	l1 := CalibrateL0ToL1(raw)
	if n := Alerts(DetectTiles(l1, 16)); n != 0 {
		t.Fatalf("%d alerts on a dry scene without fires", n)
	}
}

func TestTileMapRendersFloodRows(t *testing.T) {
	_, raw := synth(t, SynthSpec{W: 128, H: 128, FloodFrac: 0.3, NoiseSigma: 15})
	l1 := CalibrateL0ToL1(raw)
	tiles := DetectTiles(l1, 16)
	m := TileMap(tiles)
	if !strings.Contains(m, "≈") {
		t.Fatalf("tile map has no flood glyphs:\n%s", m)
	}
	if strings.Count(m, "\n") != 8 {
		t.Fatalf("tile map rows = %d, want 8", strings.Count(m, "\n"))
	}
}

func TestRunOnClusterMatchesSerialDetection(t *testing.T) {
	e := sim.NewEngine(77)
	nodes := []string{"m0", "m1", "m2", "m3"}
	fs := mapred.NewHDFS(e, nodes, 4<<10, 2)
	cluster := mapred.NewCluster(e, fs, 2)
	rng := sim.NewRNG(9)
	raw := SynthesizeScene(rng, "EO1-NAM-042", SynthSpec{W: 256, H: 256, FloodFrac: 0.25, NoiseSigma: 15})
	l1 := CalibrateL0ToL1(raw)
	res, tiles, err := RunOnCluster(cluster, l1, 32)
	if err != nil {
		t.Fatal(err)
	}
	// The tiles the cluster run reports are the serial detection's.
	if !reflect.DeepEqual(tiles, DetectTiles(l1, 32)) {
		t.Fatal("the cluster run's tiles differ from the serial detection")
	}
	if res.Duration() <= 0 {
		t.Fatal("job took no simulated time")
	}
}

func TestFloodAreaPositiveWhenFlooded(t *testing.T) {
	_, raw := synth(t, SynthSpec{W: 128, H: 128, FloodFrac: 0.3, NoiseSigma: 10})
	l1 := CalibrateL0ToL1(raw)
	tiles := DetectTiles(l1, 16)
	if FloodArea(tiles) <= 0 {
		t.Fatal("no flood area measured")
	}
}
