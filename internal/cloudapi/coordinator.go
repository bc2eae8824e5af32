package cloudapi

import (
	"context"
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
	Clock(ctx context.Context) (ClockStatus, error)
	// ClockSync publishes a target virtual time (ErrFreeRunning if the
	// site does not follow).
	ClockSync(ctx context.Context, target sim.Time) error
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
// eat the interval, so each round gives every site the loop's round
// deadline and cancels the calls of any site still unanswered. Each site
// settles exactly once per round, on the coordinator's goroutine, through
// settle, the coordinator's pure step: a push cut at its deadline is one
// error and no sync, even if the site applied the target before the cut
// (the follower tolerates that by design).
type ClockCoordinator struct {
	engine *sim.Engine

	mu    sync.Mutex
	sites []clockSite // attachment order

	cancel context.CancelFunc // ends the round in flight; Stop calls it
	loop   *fanout.Loop
}

// clockSite is one followed site's record.
type clockSite struct {
	SkewStats
	lastPush sim.Time // console time at the site's previous sync
	pushed   bool
}

// StartClockCoordinator begins pushing e's virtual time to every target
// each interval of wall time, each round cancelling a site's calls after
// fanout.RoundDeadline. Stop it before tearing the sites down.
func StartClockCoordinator(e *sim.Engine, interval time.Duration, targets ...ClockSyncTarget) *ClockCoordinator {
	c := &ClockCoordinator{engine: e, sites: make([]clockSite, len(targets))}
	for i, t := range targets {
		c.sites[i].Site = t.Name()
	}
	group := fanout.NewGroup(siteWorkers, len(targets), func(ctx context.Context, i int) syncOutcome {
		return c.syncOne(ctx, targets[i])
	})
	deadline := fanout.RoundDeadline(interval)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.loop = fanout.Every(interval, func() {
		outcomes, completed := group.Run(ctx, deadline)
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := range c.sites {
			c.sites[i].settle(outcomes[i], completed[i])
		}
	})
	return c
}

// siteWorkers bounds this package's per-round site fan-outs: clock pushes
// and usage polls.
const siteWorkers = 8

// syncOutcome is one site's result in one round.
type syncOutcome struct {
	read bool     // the clock read answered: skew and now are set
	skew float64  // coordinator − site, virtual seconds, clamped at 0
	now  sim.Time // the coordinator time observed and pushed
	err  error    // the failed read or push
}

// syncOne observes one site's clock against the authoritative engine, then
// pushes the engine's current time as the site's next target.
func (c *ClockCoordinator) syncOne(ctx context.Context, t ClockSyncTarget) syncOutcome {
	st, err := t.Clock(ctx)
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
	return syncOutcome{read: true, skew: skew, now: now, err: t.ClockSync(ctx, now)}
}

// settle is the coordinator's step, a pure function of the site's record
// and its outcome in one round: a round cut at its deadline is one error
// and nothing else; a completed one records its skew observation (if the
// read answered) and then either a sync or an error.
func (s *clockSite) settle(o syncOutcome, completed bool) {
	if !completed {
		s.Errors++
		return
	}
	if o.read {
		s.LastSkew = o.skew
		s.MaxSkew = max(s.MaxSkew, o.skew)
		if s.pushed {
			s.MaxExcess = max(s.MaxExcess, o.skew-float64(o.now-s.lastPush))
		}
	}
	if o.err != nil {
		s.Errors++
		return
	}
	s.Syncs++
	s.lastPush, s.pushed = o.now, true
}

// Stats returns a copy of every site's skew statistics, sorted by site
// name.
func (c *ClockCoordinator) Stats() []SkewStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SkewStats, len(c.sites))
	for i := range c.sites {
		out[i] = c.sites[i].SkewStats
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

// Stop cancels the round in flight, whose calls return at once and settle
// as errors, and halts the coordinator once it has. Idempotent.
func (c *ClockCoordinator) Stop() {
	c.cancel()
	c.loop.Stop()
}
