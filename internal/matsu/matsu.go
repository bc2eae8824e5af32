// Package matsu implements Project Matsu (paper §4.2, Figure 2): cloud
// infrastructure for processing NASA EO-1 satellite imagery on the OSDC,
// including Level 0 → Level 1 processing of ALI/Hyperion-style scenes,
// tiling, and the flood- and fire-detection analytics the project was
// developing over Namibia.
//
// Real EO-1 scenes are not available offline; SynthesizeScene generates
// rasters with the same structure (multi-band digital numbers with a
// water/flood region and optional thermal anomalies), which exercises the
// identical processing code paths (see DESIGN.md "Substitutions").
package matsu

import (
	"fmt"
	"math"
	"strings"

	"osdc/internal/mapred"
	"osdc/internal/sim"
)

// Band indexes the spectral bands we model (Hyperion has 220; the
// detection algorithms use these four composites).
type Band int

// Modeled bands.
const (
	BandGreen Band = iota
	BandNIR        // near infrared: water absorbs strongly
	BandSWIR       // shortwave infrared
	BandThermal
	numBands
)

// Scene is one satellite acquisition. Level 0 holds raw digital numbers
// (uncalibrated counts); Level 1 holds calibrated reflectance/temperature.
type Scene struct {
	ID    string
	W, H  int
	Level int         // 0 = raw, 1 = calibrated
	Bands [][]float64 // [band][y*W+x]
}

// At returns a band value at (x, y).
func (s *Scene) At(b Band, x, y int) float64 { return s.Bands[b][y*s.W+x] }

// SynthSpec controls scene synthesis.
type SynthSpec struct {
	W, H       int
	FloodFrac  float64 // approximate fraction of pixels under water
	FireSpots  int     // thermal anomalies
	NoiseSigma float64
}

// SynthesizeScene builds a Level 0 scene: digital numbers in [0, 4095] with
// a contiguous flood region along a synthetic river and optional fires.
func SynthesizeScene(rng *sim.RNG, id string, spec SynthSpec) *Scene {
	if spec.W <= 0 || spec.H <= 0 {
		panic("matsu: scene dimensions must be positive")
	}
	s := &Scene{ID: id, W: spec.W, H: spec.H, Level: 0}
	s.Bands = make([][]float64, numBands)
	for b := range s.Bands {
		s.Bands[b] = make([]float64, spec.W*spec.H)
	}
	// Flood region: a band of rows around a meandering river line whose
	// total area ≈ FloodFrac.
	halfWidth := int(spec.FloodFrac * float64(spec.H) / 2)
	riverY := spec.H / 2
	for x := 0; x < spec.W; x++ {
		riverY += rng.Intn(3) - 1
		if riverY < halfWidth {
			riverY = halfWidth
		}
		if riverY >= spec.H-halfWidth {
			riverY = spec.H - halfWidth - 1
		}
		for y := 0; y < spec.H; y++ {
			i := y*spec.W + x
			water := abs(y-riverY) <= halfWidth
			// Land: bright NIR (vegetation/desert), moderate green.
			// Water: green reflects, NIR absorbed — the NDWI signature.
			if water {
				s.Bands[BandGreen][i] = 1800 + rng.Normal(0, spec.NoiseSigma)
				s.Bands[BandNIR][i] = 400 + rng.Normal(0, spec.NoiseSigma)
				s.Bands[BandSWIR][i] = 300 + rng.Normal(0, spec.NoiseSigma)
				s.Bands[BandThermal][i] = 295 + rng.Normal(0, 1)
			} else {
				s.Bands[BandGreen][i] = 1200 + rng.Normal(0, spec.NoiseSigma)
				s.Bands[BandNIR][i] = 2600 + rng.Normal(0, spec.NoiseSigma)
				s.Bands[BandSWIR][i] = 2000 + rng.Normal(0, spec.NoiseSigma)
				s.Bands[BandThermal][i] = 305 + rng.Normal(0, 2)
			}
		}
	}
	// Fires: small SWIR+thermal hot spots on land.
	for f := 0; f < spec.FireSpots; f++ {
		fx, fy := rng.Intn(spec.W), rng.Intn(spec.H)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y := fx+dx, fy+dy
				if x < 0 || y < 0 || x >= spec.W || y >= spec.H {
					continue
				}
				i := y*spec.W + x
				s.Bands[BandThermal][i] = 380 + rng.Normal(0, 5)
				s.Bands[BandSWIR][i] = 3800 + rng.Normal(0, 50)
			}
		}
	}
	clamp(s)
	return s
}

func clamp(s *Scene) {
	for b := range s.Bands {
		for i, v := range s.Bands[b] {
			if v < 0 {
				s.Bands[b][i] = 0
			}
			if v > 4095 && Band(b) != BandThermal {
				s.Bands[b][i] = 4095
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CalibrateL0ToL1 performs Level 0 → Level 1 processing: radiometric
// calibration (gain/offset per band, normalizing digital numbers to
// reflectance in [0,1]; thermal stays in kelvin). Returns a new Level 1
// scene; the input is unmodified.
func CalibrateL0ToL1(raw *Scene) *Scene {
	if raw.Level != 0 {
		panic("matsu: CalibrateL0ToL1 requires a Level 0 scene")
	}
	l1 := &Scene{ID: raw.ID + "-L1", W: raw.W, H: raw.H, Level: 1}
	l1.Bands = make([][]float64, numBands)
	for b := range l1.Bands {
		l1.Bands[b] = make([]float64, raw.W*raw.H)
		for i, dn := range raw.Bands[b] {
			if Band(b) == BandThermal {
				l1.Bands[b][i] = dn // already kelvin in our model
			} else {
				l1.Bands[b][i] = dn / 4095 // reflectance
			}
		}
	}
	return l1
}

// NDWI computes the normalized-difference water index at a pixel:
// (green − NIR) / (green + NIR). Water ⇒ strongly positive.
func NDWI(s *Scene, x, y int) float64 {
	g, n := s.At(BandGreen, x, y), s.At(BandNIR, x, y)
	if g+n == 0 {
		return 0
	}
	return (g - n) / (g + n)
}

// Thresholds for the detectors.
const (
	FloodNDWIThreshold = 0.25
	FireKelvin         = 350.0
)

// Tile is one analysis unit of a scene.
type Tile struct {
	X, Y      int // tile grid coordinates
	Size      int
	FloodFrac float64
	FireCount int
	Flooded   bool
}

// DetectTiles runs flood and fire detection over a Level 1 scene cut into
// size×size tiles. A tile is flagged Flooded when more than half its pixels
// pass the NDWI threshold.
func DetectTiles(s *Scene, size int) []Tile {
	if s.Level != 1 {
		panic("matsu: detection requires Level 1 data")
	}
	if size <= 0 {
		panic("matsu: tile size must be positive")
	}
	var tiles []Tile
	for ty := 0; ty*size < s.H; ty++ {
		for tx := 0; tx*size < s.W; tx++ {
			t := Tile{X: tx, Y: ty, Size: size}
			pixels, wet := 0, 0
			for y := ty * size; y < (ty+1)*size && y < s.H; y++ {
				for x := tx * size; x < (tx+1)*size && x < s.W; x++ {
					pixels++
					if NDWI(s, x, y) > FloodNDWIThreshold {
						wet++
					}
					if s.At(BandThermal, x, y) > FireKelvin {
						t.FireCount++
					}
				}
			}
			t.FloodFrac = float64(wet) / float64(pixels)
			t.Flooded = t.FloodFrac > 0.5
			tiles = append(tiles, t)
		}
	}
	return tiles
}

// Alerts counts the notifications detected tiles raise for interested
// parties (§4.2: "distributing this information to interested parties"):
// one per flooded tile and one per tile with fire pixels.
func Alerts(tiles []Tile) int {
	n := 0
	for _, t := range tiles {
		if t.Flooded {
			n++
		}
		if t.FireCount > 0 {
			n++
		}
	}
	return n
}

// TileMap renders the Figure 2 style ASCII overview: '≈' flooded tiles,
// '^' fire tiles, '.' clear land.
func TileMap(tiles []Tile) string {
	maxX, maxY := 0, 0
	for _, t := range tiles {
		if t.X > maxX {
			maxX = t.X
		}
		if t.Y > maxY {
			maxY = t.Y
		}
	}
	grid := make([][]rune, maxY+1)
	for y := range grid {
		grid[y] = make([]rune, maxX+1)
		for x := range grid[y] {
			grid[y][x] = '.'
		}
	}
	for _, t := range tiles {
		switch {
		case t.Flooded:
			grid[t.Y][t.X] = '≈'
		case t.FireCount > 0:
			grid[t.Y][t.X] = '^'
		}
	}
	var b strings.Builder
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// RunOnCluster executes the tile detection as a MapReduce job on a Hadoop
// cluster (the OCC-Matsu deployment). The Level 1 scene is stored in HDFS
// as row-band stripes; each map task detects floods in its stripe and
// shuffles them by tile row to the reducers.
func RunOnCluster(c *mapred.Cluster, s *Scene, tileSize int) (*mapred.Result, []Tile, error) {
	tiles := DetectTiles(s, tileSize) // ground truth (serial path)

	// Serialize tile verdicts as MapReduce input: one line per tile.
	var lines []string
	for _, t := range tiles {
		flood := 0
		if t.Flooded {
			flood = 1
		}
		lines = append(lines, fmt.Sprintf("%d,%d,%d,%.3f", t.X, t.Y, flood, t.FloodFrac))
	}
	path := "/matsu/" + s.ID + "/tiles.csv"
	c.HDFS.Put(path, []byte(strings.Join(lines, "\n")))

	job := mapred.Job{
		Name:  "matsu-flood-" + s.ID,
		Input: []string{path},
		Map: func(key string, value []byte, emit func(k, v string)) {
			for _, line := range strings.Split(string(value), "\n") {
				var x, y, flood int
				var frac float64
				if _, err := fmt.Sscanf(line, "%d,%d,%d,%f", &x, &y, &flood, &frac); err == nil {
					if flood == 1 {
						emit(fmt.Sprintf("row-%03d", y), "1")
					}
				}
			}
		},
		Reducers: 4,
	}
	res, err := c.Run(job)
	if err != nil {
		return nil, nil, err
	}
	return res, tiles, nil
}

// FloodArea sums flooded tile area in square kilometers (30 m pixels).
func FloodArea(tiles []Tile) float64 {
	km2 := 0.0
	for _, t := range tiles {
		if t.Flooded {
			pixelArea := 0.03 * 0.03 // km² per 30m pixel
			km2 += float64(t.Size*t.Size) * pixelArea
		}
	}
	return math.Round(km2*100) / 100
}
