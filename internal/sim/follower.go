package sim

import (
	"sync"
	"time"
)

// Follower is the synchronized ClockSource: instead of free-running against
// wall time it advances its engine toward a target virtual time published
// from outside — the console engine's clock, pushed by a coordinator each
// sync interval. The per-tick advance is clamped to the remaining lag, so a
// follower never runs past the newest target: its skew against the
// coordinator is bounded by however much the coordinator advanced since the
// last publication (one sync interval of virtual time) plus at most one
// follower tick of catch-up latency.
//
// Targets are monotonic: a published target earlier than the engine's
// current time is ignored (virtual time cannot run backwards), so a stale
// or duplicate sync is harmless. When no fresh target arrives — a site
// missing its syncs — the follower simply holds the clock still; events
// stop firing rather than drifting, and the engine resumes from where it
// stopped on the next publication.
type Follower struct {
	source
	// maxRate caps catch-up speed in virtual seconds per wall second;
	// <= 0 means unbounded (jump to the target in one tick).
	maxRate float64

	mu     sync.Mutex
	target Time
}

// StartFollower switches c into shared mode and starts the follower
// goroutine: every interval of wall time (<= 0 means 2 ms) the clock is
// advanced toward the newest published target, by at most maxRate virtual
// seconds per wall second (<= 0 for unbounded catch-up). Until the first
// SetTarget the clock holds still. Over a ShardSet each catch-up tick
// advances all shards toward the same target, so the cross-shard skew
// bound composes with the cross-site one.
func StartFollower(c Clock, maxRate float64, interval time.Duration) *Follower {
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	return newFollower(c, maxRate, wallTicks(interval))
}

func newFollower(c Clock, maxRate float64, feed tickFeed) *Follower {
	f := &Follower{maxRate: maxRate, target: c.Now()}
	f.start(c, feed, f.next)
	return f
}

// SetTarget publishes a new target virtual time. Targets behind the current
// one are ignored (the clock never runs backwards). Safe from any
// goroutine.
func (f *Follower) SetTarget(t Time) {
	f.mu.Lock()
	if t > f.target {
		f.target = t
	}
	f.mu.Unlock()
}

// Target returns the newest published target.
func (f *Follower) Target() Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.target
}

func (f *Follower) next(dt float64) (Time, bool) {
	target := f.Target()
	at := f.clock.Now()
	lag := float64(target - at)
	if lag <= 0 {
		return 0, false
	}
	if f.maxRate > 0 {
		if step := dt * f.maxRate; step < lag {
			lag = step
		}
	}
	return at + Time(lag), true
}
