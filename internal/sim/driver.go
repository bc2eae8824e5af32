package sim

import (
	"sync"
	"time"
)

// ClockSource is an engine's single clock-driving goroutine, abstracted:
// something that owns the right to call Run*/Step on a shared Engine and
// advances its virtual clock from the background. Two implementations
// exist:
//
//   - Driver free-runs: virtual time tracks wall time at a fixed speedup,
//     with no reference to any other engine's clock;
//   - Follower advances only toward a target virtual time published from
//     outside (a clock coordinator), never past it — the building block of
//     cross-engine clock sync in the per-site federation topology.
//
// Everything else sharing the engine may only schedule, cancel and read.
type ClockSource interface {
	// Engine returns the engine this source drives.
	Engine() *Engine
	// Stop halts the driving goroutine and waits for it to exit. The
	// engine is left at whatever virtual time it reached. Idempotent.
	Stop()
}

// source is the clock-driving goroutine Driver and Follower share: on
// every tick it asks its policy how far to run the clock, given the wall
// seconds since the last tick, and runs it there. StartDriver and
// StartFollower feed it a real ticker; tests feed it by hand.
type source struct {
	clock  Clock
	anchor *Engine

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// tickFeed is what a source runs on: a channel of wall times, the first
// measured from from, and (when set) what stops the channel's ticker once
// the loop exits.
type tickFeed struct {
	from time.Time
	c    <-chan time.Time
	stop func()
}

// wallTicks feeds a source from a real ticker. The loop stops it on exit:
// a live ticker keeps a testing/synctest bubble's fake clock running.
func wallTicks(interval time.Duration) tickFeed {
	t := time.NewTicker(interval)
	return tickFeed{from: time.Now(), c: t.C, stop: t.Stop}
}

// start switches c into shared mode, makes it the source's clock and
// starts the loop on feed.
func (s *source) start(c Clock, feed tickFeed, next func(dt float64) (Time, bool)) {
	c.Share()
	s.clock = c
	if set, ok := c.(*ShardSet); ok {
		s.anchor = set.Anchor()
	} else {
		s.anchor = c.(*Engine)
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go s.loop(feed, next)
}

// loop is the goroutine: next returns the virtual time to run the clock
// to, or false to leave it where it is. A tick that is not after the last
// one runs nothing.
func (s *source) loop(feed tickFeed, next func(dt float64) (Time, bool)) {
	defer close(s.done)
	if feed.stop != nil {
		defer feed.stop()
	}
	last := feed.from
	for {
		select {
		case <-s.stop:
			return
		case now := <-feed.c:
			dt := now.Sub(last).Seconds()
			if dt <= 0 {
				continue
			}
			last = now
			if to, ok := next(dt); ok {
				s.clock.RunUntil(to)
			}
		}
	}
}

// Engine implements ClockSource. Over a ShardSet it returns the anchor
// shard.
func (s *source) Engine() *Engine { return s.anchor }

// Stop implements ClockSource. The engine is left at whatever virtual time
// it reached; it remains in shared mode.
func (s *source) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Driver is the free-running ClockSource: every interval of real time it
// runs the clock forward by the elapsed wall time multiplied by speedup.
// This is what turns the discrete-event federation into a live service —
// billing pollers, monitoring sweeps and VM boot timers all fire while
// HTTP handlers schedule against the same clock. The clock may be a
// single Engine or a ShardSet, whose shards the driver advances to a
// common target each tick, so cross-shard skew stays bounded by one
// tick's worth of virtual time.
type Driver struct {
	source
	speedup float64
}

// StartDriver switches c into shared mode and starts a goroutine advancing
// it: speedup is simulated seconds per wall second (<= 0 means 1, i.e.
// real time), interval the wall period between advances (<= 0 means 5 ms).
// Stop the driver before tearing the engine's world down.
func StartDriver(c Clock, speedup float64, interval time.Duration) *Driver {
	if speedup <= 0 {
		speedup = 1
	}
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	return newDriver(c, speedup, wallTicks(interval))
}

func newDriver(c Clock, speedup float64, feed tickFeed) *Driver {
	d := &Driver{speedup: speedup}
	d.start(c, feed, d.next)
	return d
}

func (d *Driver) next(dt float64) (Time, bool) {
	return d.clock.Now() + Time(dt*d.speedup), true
}
