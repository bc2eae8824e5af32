// Package billing implements OSDC accounting (paper §6.4): "we currently
// bill based on core hours and storage usage. For OSDC-Adler and
// OSDC-Sullivan, we poll every minute to see the number and types of
// virtual machine a user has provisioned ... Storage is checked per user
// once a day. ... Our billing cycle is monthly and users can check their
// current usage via the OSDC web interface."
//
// The paper's operational lesson — "even basic billing and accounting are
// effective limiting bad behavior and providing incentives to properly
// share resources" — is reproduced in the benchmarks by comparing resource
// hoarding with and without metering.
//
// The per-minute VM poll samples the clouds through one
// cloudapi.UsagePoller, the delta-maintained sampler the usage monitor
// also owns; the biller keeps only its accumulators and the cycle count.
// The daily storage check is not modelled: nothing in the federation
// reports per-user stored bytes.
package billing

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/sim"
)

// Usage accumulates one user's metered consumption in the current cycle.
type Usage struct {
	User        string
	CoreMinutes float64 // Σ per-minute samples of allocated cores
}

// CoreHours converts the per-minute samples to core-hours.
func (u Usage) CoreHours() float64 { return u.CoreMinutes / 60 }

// usageShards is the accumulator shard count. At millions of users one
// mutex over every accumulator serializes the pollers against every
// console usage read; sharding by user hash (the same trick as sim's heap
// sharding) keeps contention bounded by shard, not by population.
const usageShards = 16

// usageShard is one lock's worth of per-user accumulators.
type usageShard struct {
	mu    sync.Mutex
	usage map[string]*Usage
}

// Biller polls clouds and closes a monthly cycle.
//
// The pollers fire on the clock-driving goroutine while the Tukey console
// reads CurrentUsage/Cycle from HTTP handlers. Per-user accumulators live
// in 16 user-hash shards, each behind its own mutex, so one hot reader no
// longer serializes every other user; the cycle counter has its own lock,
// and the poll counters are atomics.
//
// The clouds are reached only through cloudapi.CloudAPI: in the
// single-process topology they are Local wrappers sharing the engine, in
// the remote topology they are HTTP clients — metering does not care.
type Biller struct {
	usage *cloudapi.UsagePoller

	shards [usageShards]usageShard

	cycleMu sync.Mutex
	cycle   int

	pollMin *sim.Ticker
	pollMon *sim.Ticker

	// Polls counts completed per-minute VM sweeps; an atomic — read it
	// with atomic.LoadInt64 while pollers may fire.
	Polls int64

	// deadline bounds one cloud sample's wall time per poll; defaults to
	// cloudapi.PollDeadline; the tests shorten it.
	deadline time.Duration
}

// DaysPerCycle is the billing month (30 days).
const DaysPerCycle = 30

// New starts a biller: per-minute VM polling and a 30-day billing cycle,
// both on the simulation clock.
func New(e *sim.Engine, clouds []cloudapi.CloudAPI) *Biller {
	b := &Biller{usage: cloudapi.NewUsagePoller(clouds), cycle: 1, deadline: cloudapi.PollDeadline}
	for i := range b.shards {
		b.shards[i].usage = make(map[string]*Usage)
	}
	b.pollMin = e.Every(sim.Minute, b.pollVMs)
	b.pollMon = e.Every(DaysPerCycle*sim.Day, b.closeCycle)
	return b
}

// Stop halts all pollers; a poll in flight returns at once, its samples
// counted as errors.
func (b *Biller) Stop() {
	b.pollMin.Stop()
	b.pollMon.Stop()
	b.usage.Stop()
}

// PollErrorsByCloud returns each polled cloud's sample-failure count —
// zero entries included, so a healthy federation reports every site.
func (b *Biller) PollErrorsByCloud() map[string]int64 { return b.usage.ErrorsByCloud() }

// shardFor hashes a user onto its accumulator shard.
func (b *Biller) shardFor(user string) *usageShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(user))
	return &b.shards[h.Sum32()%usageShards]
}

// accrueCores credits one minute-sample of cores to user.
func (b *Biller) accrueCores(user string, cores int) {
	sh := b.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	u := sh.user(user)
	u.CoreMinutes += float64(cores)
}

// user returns the accumulator for u, creating it; callers hold sh.mu.
func (sh *usageShard) user(u string) *Usage {
	if x, ok := sh.usage[u]; ok {
		return x
	}
	x := &Usage{User: u}
	sh.usage[u] = x
	return x
}

// pollVMs samples every cloud: one sample = one minute of the user's
// currently allocated cores.
//
// The samples fan out through the usage poller with a per-poll deadline,
// so one hung remote site cannot stall the simulation clock for every
// site behind it, and each cloud is polled incrementally (see
// cloudapi.UsagePoller). Accrual stays on this goroutine, in
// cloud-attachment order, so the metered sums remain deterministic; it
// iterates each maintained snapshot every tick, so unchanged users keep
// accruing. An errored or cancelled cloud accrues nothing this tick.
func (b *Biller) pollVMs() {
	snaps := b.usage.Poll(b.deadline)
	atomic.AddInt64(&b.Polls, 1)
	for _, u := range snaps {
		if u == nil {
			continue
		}
		for user, v := range u.ByUser {
			b.accrueCores(user, v.Cores)
		}
	}
}

// closeCycle resets the accumulators and opens the next cycle.
func (b *Biller) closeCycle() {
	// cycleMu is taken for the whole close, before any shard is reset: a
	// console handler that reads a freshly reset accumulator (zero usage)
	// then asks Cycle() blocks here and observes the *new* cycle — never
	// "no usage" in a cycle it accrued in. Lock order cycleMu → shard is
	// safe because no other path holds a shard lock while taking cycleMu.
	b.cycleMu.Lock()
	defer b.cycleMu.Unlock()
	// The pollers fire on the clock-driving goroutine, as this does, so a
	// reset never splits one poll's samples between two cycles.
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		sh.usage = make(map[string]*Usage)
		sh.mu.Unlock()
	}
	b.cycle++
}

// CurrentUsage is what the web console shows mid-cycle; it takes only the
// caller's shard lock.
func (b *Biller) CurrentUsage(user string) Usage {
	sh := b.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if u, ok := sh.usage[user]; ok {
		return *u
	}
	return Usage{User: user}
}

// Cycle returns the current (open) cycle number.
func (b *Biller) Cycle() int {
	b.cycleMu.Lock()
	defer b.cycleMu.Unlock()
	return b.cycle
}

func (u Usage) String() string {
	return fmt.Sprintf("%s: %.1f core-hours", u.User, u.CoreHours())
}
