package transport

import "osdc/internal/sim"

// PacketsPerSec converts the path bandwidth to packets per second.
func (p Path) PacketsPerSec() float64 { return p.BandwidthBps / float64(p.MSS*8) }

// QuietController is the optional interface Simulate runs quiet runs
// through, for the fuzz harness's budget wrapper.
type QuietController = quietController

// LossSampler is a flow's Poisson sampler, for its fuzz oracle.
type LossSampler = lossSampler

// Draw samples one tick's loss.
func (s *LossSampler) Draw(rng *sim.RNG, mean float64) float64 { return s.draw(rng, mean) }

// Carry hands the sampler a quiet run's stopping draw, as Simulate does.
func (s *LossSampler) Carry(u float64) { s.first = u }
