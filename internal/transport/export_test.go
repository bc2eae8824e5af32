package transport

// PacketsPerSec converts the path bandwidth to packets per second.
func (p Path) PacketsPerSec() float64 { return p.BandwidthBps / float64(p.MSS*8) }

// QuietController is the optional interface Simulate runs quiet runs
// through, for the fuzz harness's budget wrapper.
type QuietController = quietController
