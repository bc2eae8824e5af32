package cloudapi

import (
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/fanout"
)

// PollDeadline is the wall budget one site gets in an operator poll
// (billing and usage-monitor samples, Nagios agent sweeps) before the poll
// abandons the wait: half the Remote client's own timeout, so a poll
// surfaces a hung site well before the transport gives up.
const PollDeadline = DefaultTimeout / 2

// UsagePoller keeps one maintained usage snapshot per cloud, advanced by
// UsageSince deltas — the operator pollers' shared sampling path (§6.4:
// "we poll every minute to see the number and types of virtual machine a
// user has provisioned"). The first poll (since 0) and any rev reset
// arrive as full snapshots; a steady-state poll over an unchanged cloud
// ships an empty delta instead of the whole per-user map. The biller and
// the usage monitor each own one and poll it from the clock-driving
// goroutine at their own cadence.
type UsagePoller struct {
	clouds []CloudAPI
	group  *fanout.Group[usageSample]
	errs   []atomic.Int64 // per cloud, in attachment order

	// mu covers snaps: a sample abandoned at its deadline may read its
	// cloud's Rev after the next Poll has begun folding.
	mu    sync.Mutex
	snaps []Usage
	out   []*Usage // Poll's reused result
}

type usageSample struct {
	d   UsageDelta
	err error
}

// NewUsagePoller builds a poller over clouds; it polls nothing until Poll.
func NewUsagePoller(clouds []CloudAPI) *UsagePoller {
	p := &UsagePoller{
		clouds: clouds,
		errs:   make([]atomic.Int64, len(clouds)),
		snaps:  make([]Usage, len(clouds)),
		out:    make([]*Usage, len(clouds)),
	}
	p.group = fanout.NewGroup(siteWorkers, len(clouds), p.sample)
	return p
}

func (p *UsagePoller) sample(i int) usageSample {
	p.mu.Lock()
	since := p.snaps[i].Rev
	p.mu.Unlock()
	d, err := p.clouds[i].UsageSince(since)
	return usageSample{d, err}
}

// Poll samples every cloud through the bounded pool, waiting up to
// deadline for each — one hung remote site polled serially would stall the
// clock for every site behind it — and folds each answered delta into that
// cloud's snapshot. It returns the snapshots in attachment order, nil for
// a cloud that errored or missed the deadline (counted in ErrorsByCloud).
// A failed cloud's snapshot and rev stay put: the churn it missed re-sends
// next poll because deltas carry absolute values. The slice and the
// snapshots are valid until the next Poll.
func (p *UsagePoller) Poll(deadline time.Duration) []*Usage {
	res, done := p.group.Run(deadline)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.out {
		p.out[i] = nil
		if !done[i] || res[i].err != nil {
			p.errs[i].Add(1)
			continue
		}
		p.snaps[i].apply(res[i].d)
		p.out[i] = &p.snaps[i]
	}
	return p.out
}

// ErrorsByCloud returns each cloud's failed-sample count — zero entries
// included, so a healthy federation reports every site.
func (p *UsagePoller) ErrorsByCloud() map[string]int64 {
	out := make(map[string]int64, len(p.clouds))
	for i, c := range p.clouds {
		out[c.Name()] += p.errs[i].Load()
	}
	return out
}

// apply folds a delta into the snapshot.
func (u *Usage) apply(d UsageDelta) {
	if d.Reset || u.ByUser == nil {
		u.ByUser = make(map[string]UserUsage, len(d.Changed))
	}
	for user, v := range d.Changed {
		u.ByUser[user] = v
	}
	for _, user := range d.Removed {
		delete(u.ByUser, user)
	}
	u.Rev, u.UsedCores, u.TotalCores = d.Rev, d.UsedCores, d.TotalCores
}
