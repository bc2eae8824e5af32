package cloudapi

import (
	"context"
	"sync/atomic"
	"time"

	"osdc/internal/fanout"
)

// PollDeadline is the wall budget one site gets in an operator poll
// (billing and usage-monitor samples) before the poll cancels its
// request: half the Remote client's own timeout, so a poll surfaces a
// hung site well before the transport gives up.
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
	snaps  []Usage
	out    []*Usage // Poll's reused result

	ctx    context.Context // every poll's; Stop cancels it
	cancel context.CancelFunc
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
	p.ctx, p.cancel = context.WithCancel(context.Background())
	return p
}

func (p *UsagePoller) sample(ctx context.Context, i int) usageSample {
	d, err := p.clouds[i].UsageSince(ctx, p.snaps[i].Rev)
	return usageSample{d, err}
}

// Poll samples every cloud through the bounded pool, cancelling each
// sample after deadline — one hung remote site polled serially would
// stall the clock for every site behind it — and folds each answered
// delta into that cloud's snapshot. It returns the snapshots in attachment
// order, nil for a cloud that errored, missed the deadline or was cut by
// Stop (counted in ErrorsByCloud).
// A failed cloud's snapshot and rev stay put: the churn it missed re-sends
// next poll because deltas carry absolute values. The slice and the
// snapshots are valid until the next Poll.
func (p *UsagePoller) Poll(deadline time.Duration) []*Usage {
	res, done := p.group.Run(p.ctx, deadline)
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

// Stop cancels the poll in flight, which returns at once, and every later
// one. It may be called from any goroutine.
func (p *UsagePoller) Stop() { p.cancel() }

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
