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
// and abandons any site still unanswered. Each site settles exactly once
// per round, on the coordinator's goroutine: an abandoned push is one
// error — it may still land late, which the follower tolerates by design,
// but that landing counts as no sync and moves no statistic.
type ClockCoordinator struct {
	engine   *sim.Engine
	interval time.Duration
	targets  []ClockSyncTarget

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

// siteWorkers bounds this package's per-round site fan-outs: clock pushes
// and usage polls.
const siteWorkers = 8

func (c *ClockCoordinator) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	group := fanout.NewGroup(siteWorkers, len(c.targets), func(i int) syncOutcome {
		return c.syncOne(c.targets[i])
	})
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
			outcomes, completed := group.Run(deadline)
			for i, t := range c.targets {
				c.settle(t.Name(), outcomes[i], completed[i])
			}
		}
	}
}

// syncOutcome is one site's result in one round.
type syncOutcome struct {
	read bool     // the clock read answered: skew and now are set
	skew float64  // coordinator − site, virtual seconds, clamped at 0
	now  sim.Time // the coordinator time observed and pushed
	err  error    // the failed read or push
}

// syncOne observes one site's clock against the authoritative engine, then
// pushes the engine's current time as the site's next target.
func (c *ClockCoordinator) syncOne(t ClockSyncTarget) syncOutcome {
	st, err := t.Clock()
	if err != nil {
		return syncOutcome{err: err}
	}
	// Sample the authoritative clock after the site answered: anything the
	// console engine gained during the read round trip is charged to the
	// observation, never credited to the site.
	now := c.engine.Now()
	// A site can only appear ahead by measurement race (its clock was read
	// before ours); clamp rather than report negative skew.
	skew := max(float64(now)-st.Now, 0)
	return syncOutcome{read: true, skew: skew, now: now, err: t.ClockSync(now)}
}

// settle records one site's round: an abandoned round is one error and
// nothing else; a completed one records its skew observation (if the read
// answered) and then either a sync or an error.
func (c *ClockCoordinator) settle(name string, o syncOutcome, completed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats[name]
	if !completed {
		s.Errors++
		return
	}
	if o.read {
		s.LastSkew = o.skew
		if o.skew > s.MaxSkew {
			s.MaxSkew = o.skew
		}
		if prev, ok := c.lastPush[name]; ok {
			if excess := o.skew - float64(o.now-prev); excess > s.MaxExcess {
				s.MaxExcess = excess
			}
		}
	}
	if o.err != nil {
		s.Errors++
		return
	}
	s.Syncs++
	c.lastPush[name] = o.now
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
