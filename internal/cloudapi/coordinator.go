package cloudapi

import (
	"sort"
	"sync"
	"time"

	"osdc/internal/fanout"
	"osdc/internal/sim"
)

// ClockSyncTarget is one followed site as the coordinator sees it: a named
// clock plane reachable over some transport. *Remote implements it; tests
// may substitute in-process fakes.
type ClockSyncTarget interface {
	Name() string
	// Clock reads the site's current virtual time.
	Clock() (ClockStatus, error)
	// ClockSync publishes a target virtual time (ErrFreeRunning if the
	// site does not follow).
	ClockSync(target sim.Time) error
}

// SkewSample is one coordinator observation of one site's clock.
type SkewSample struct {
	// Skew is how far the site's virtual clock trailed the coordinator
	// engine at observation time, in virtual seconds (coordinator − site).
	Skew float64
	// Interval is how much the coordinator engine advanced since this
	// site's previous sync — the actual sync interval in virtual seconds.
	// Zero on a site's first observation.
	Interval float64
}

// SkewStats aggregates a site's samples over the coordinator's lifetime.
type SkewStats struct {
	Site   string
	Syncs  int64 // completed push rounds
	Errors int64 // failed reads or pushes (unreachable / free-running site)
	// LastSkew and MaxSkew are in virtual seconds (coordinator − site at
	// observation time, before that round's push).
	LastSkew float64
	MaxSkew  float64
	// MaxExcess is the worst observed skew *beyond* that round's actual
	// sync interval, in virtual seconds. The follower contract bounds it
	// by one follower tick plus the clock-read round trip, both converted
	// to virtual time — far under one sync interval. A large MaxExcess
	// means a site fell behind its targets, not just between them.
	MaxExcess float64
}

// ClockCoordinator keeps followed sites' engines near the authoritative
// engine (the console's): every interval of wall time it reads each site's
// clock, records the observed skew, and pushes the authoritative engine's
// current virtual time as the site's next target. Sites advance toward
// targets but never past them (sim.Follower), so at any instant a healthy
// site trails the coordinator by at most the virtual span of one sync
// interval plus one follower tick.
//
// A site that misses syncs — unreachable, or answering errors — simply
// stops advancing: its follower holds the clock still, the coordinator
// counts Errors, and the site resumes from where it stopped on the next
// successful push. Virtual time never runs backwards and never jumps ahead
// of the console.
//
// Pushes fan out concurrently over a bounded worker pool (ROADMAP:
// coordinator fan-out): at dozens of sites a sequential round-robin would
// eat the interval, so each round gives every site half the sync interval
// and abandons (and counts as an error) any site still unanswered — the
// push may still land late, which the follower tolerates by design.
type ClockCoordinator struct {
	engine   *sim.Engine
	interval time.Duration
	targets  []ClockSyncTarget
	workers  int

	mu       sync.Mutex
	stats    map[string]*SkewStats
	lastPush map[string]sim.Time // console time at a site's previous push

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartClockCoordinator begins pushing e's virtual time to every target
// each interval of wall time (<= 0 means 25 ms). Stop it before tearing
// the sites down.
func StartClockCoordinator(e *sim.Engine, interval time.Duration, targets ...ClockSyncTarget) *ClockCoordinator {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	c := &ClockCoordinator{
		engine: e, interval: interval, targets: targets,
		workers:  syncWorkers,
		stats:    make(map[string]*SkewStats),
		lastPush: make(map[string]sim.Time),
		stop:     make(chan struct{}), done: make(chan struct{}),
	}
	for _, t := range targets {
		c.stats[t.Name()] = &SkewStats{Site: t.Name()}
	}
	go c.loop()
	return c
}

// syncWorkers bounds the per-round push pool.
const syncWorkers = 8

func (c *ClockCoordinator) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	tasks := make([]func(), len(c.targets))
	for i, t := range c.targets {
		t := t
		tasks[i] = func() { c.syncOne(t) }
	}
	// Per-site deadline: half the sync interval, floored at 100 ms. The
	// deadline exists to keep a *hung* site from eating the round, not to
	// penalize ordinary HTTP jitter — at the millisecond-scale intervals
	// tests use, half an interval is inside normal round-trip variance
	// and would count healthy pushes as errors.
	deadline := c.interval / 2
	if deadline < 100*time.Millisecond {
		deadline = 100 * time.Millisecond
	}
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			completed := fanout.Each(c.workers, deadline, tasks)
			for i, ok := range completed {
				if !ok {
					// The abandoned push may still land; the error marks
					// that this round couldn't confirm it in time.
					c.countError(c.targets[i].Name())
				}
			}
		}
	}
}

// syncOne observes one site's clock against the authoritative engine, then
// pushes the engine's current time as the site's next target.
func (c *ClockCoordinator) syncOne(t ClockSyncTarget) {
	name := t.Name()
	st, err := t.Clock()
	if err != nil {
		c.countError(name)
		return
	}
	// Sample the authoritative clock after the site answered: anything the
	// console engine gained during the read round trip is charged to the
	// observation, never credited to the site.
	now := c.engine.Now()
	c.record(name, float64(now)-st.Now, now)
	if err := t.ClockSync(now); err != nil {
		c.countError(name)
		return
	}
	c.mu.Lock()
	c.stats[name].Syncs++
	c.lastPush[name] = now
	c.mu.Unlock()
}

func (c *ClockCoordinator) countError(name string) {
	c.mu.Lock()
	c.stats[name].Errors++
	c.mu.Unlock()
}

func (c *ClockCoordinator) record(name string, skew float64, now sim.Time) {
	if skew < 0 {
		// A site can only appear ahead by measurement race (its clock was
		// read before ours); clamp rather than report negative skew.
		skew = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats[name]
	s.LastSkew = skew
	if skew > s.MaxSkew {
		s.MaxSkew = skew
	}
	if prev, ok := c.lastPush[name]; ok {
		if excess := skew - float64(now-prev); excess > s.MaxExcess {
			s.MaxExcess = excess
		}
	}
}

// Stats returns a copy of every site's skew statistics, sorted by site
// name.
func (c *ClockCoordinator) Stats() []SkewStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SkewStats, 0, len(c.stats))
	for _, s := range c.stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// MaxSkew returns the worst skew observed across all sites, in virtual
// seconds.
func (c *ClockCoordinator) MaxSkew() float64 {
	max := 0.0
	for _, s := range c.Stats() {
		if s.MaxSkew > max {
			max = s.MaxSkew
		}
	}
	return max
}

// MaxExcess returns the worst skew-beyond-one-interval observed across all
// sites, in virtual seconds — the quantity the skew bound is asserted on.
func (c *ClockCoordinator) MaxExcess() float64 {
	max := 0.0
	for _, s := range c.Stats() {
		if s.MaxExcess > max {
			max = s.MaxExcess
		}
	}
	return max
}

// Syncs returns the total completed push rounds across all sites.
func (c *ClockCoordinator) Syncs() int64 {
	var n int64
	for _, s := range c.Stats() {
		n += s.Syncs
	}
	return n
}

// Stop halts the coordinator goroutine and waits for it to exit.
// Idempotent.
func (c *ClockCoordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}
