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
// also owns; the biller keeps only its accumulators and invoices.
package billing

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/sim"
)

// Rates are the cost-recovery prices (§8 rule 2: "charge for these
// resources on a cost recovery basis").
type Rates struct {
	PerCoreHour   float64 // dollars
	PerGBMonth    float64 // dollars per gigabyte-month of storage
	FreeCoreHours float64 // monthly free tier per user
}

// DefaultRates reflect 2012 cost-recovery pricing (about half of AWS
// on-demand; see internal/cost).
func DefaultRates() Rates {
	return Rates{PerCoreHour: 0.04, PerGBMonth: 0.05, FreeCoreHours: 100}
}

// StorageFunc reports each user's current stored bytes; wired to the DFS
// volumes / sharing database.
type StorageFunc func() map[string]int64

// Usage accumulates one user's metered consumption in the current cycle.
type Usage struct {
	User        string
	CoreMinutes float64 // Σ per-minute samples of allocated cores
	GBDays      float64 // Σ daily samples of stored GB
	Samples     int64
}

// CoreHours converts the per-minute samples to core-hours.
func (u Usage) CoreHours() float64 { return u.CoreMinutes / 60 }

// Invoice is one user's bill for one monthly cycle.
type Invoice struct {
	User       string
	Cycle      int // 1-based month index
	CoreHours  float64
	GBMonths   float64
	Storage    float64 // dollars
	Compute    float64 // dollars
	Total      float64
	FreeCredit float64
}

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

// Biller polls clouds and storage and cuts monthly invoices.
//
// The pollers fire on the clock-driving goroutine while the Tukey console
// reads CurrentUsage/Invoices/Cycle from HTTP handlers. Per-user
// accumulators live in 16 user-hash shards, each behind its own mutex, so
// one hot reader no longer serializes every other user; the invoice
// history and cycle counter have their own lock, and the poll counters are
// atomics.
//
// The clouds are reached only through cloudapi.CloudAPI: in the
// single-process topology they are Local wrappers sharing the engine, in
// the remote topology they are HTTP clients — metering does not care.
type Biller struct {
	engine  *sim.Engine
	rates   Rates
	usage   *cloudapi.UsagePoller
	storage StorageFunc

	shards [usageShards]usageShard

	histMu  sync.Mutex
	history []Invoice
	cycle   int

	pollMin *sim.Ticker
	pollDay *sim.Ticker
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

// New starts a biller: per-minute VM polling, daily storage sampling, and a
// 30-day invoice cycle, all on the simulation clock.
func New(e *sim.Engine, rates Rates, clouds []cloudapi.CloudAPI, storage StorageFunc) *Biller {
	b := &Biller{engine: e, rates: rates, usage: cloudapi.NewUsagePoller(clouds), storage: storage,
		cycle: 1, deadline: cloudapi.PollDeadline}
	for i := range b.shards {
		b.shards[i].usage = make(map[string]*Usage)
	}
	b.pollMin = e.Every(sim.Minute, b.pollVMs)
	b.pollDay = e.Every(sim.Day, b.pollStorage)
	b.pollMon = e.Every(DaysPerCycle*sim.Day, b.closeCycle)
	return b
}

// Stop halts all pollers.
func (b *Biller) Stop() {
	b.pollMin.Stop()
	b.pollDay.Stop()
	b.pollMon.Stop()
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
	u.Samples++
}

// accrueGB credits a daily storage sample to user.
func (b *Biller) accrueGB(user string, bytes int64) {
	sh := b.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.user(user).GBDays += float64(bytes) / float64(1<<30)
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
// accruing. An errored or abandoned cloud accrues nothing this tick.
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

// pollStorage samples each user's stored GB once a day.
func (b *Biller) pollStorage() {
	if b.storage == nil {
		return
	}
	for user, bytes := range b.storage() {
		b.accrueGB(user, bytes)
	}
}

// closeCycle cuts invoices and resets the accumulators.
func (b *Biller) closeCycle() {
	// histMu is taken for the whole close, before any shard is drained:
	// a console handler that reads a freshly reset accumulator (zero
	// usage) then asks Cycle()/Invoices() blocks here and observes the
	// *new* cycle with the old cycle's invoices cut — never "no usage" in
	// a cycle it accrued in. Lock order histMu → shard is safe because no
	// other path holds a shard lock while taking histMu.
	b.histMu.Lock()
	defer b.histMu.Unlock()

	// Drain every shard. Pollers interleaving mid-drain would split a
	// user's sample between two cycles, but both tickers fire on the
	// clock-driving goroutine, so drain and accrual never overlap.
	all := make(map[string]*Usage)
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for name, u := range sh.usage {
			all[name] = u
		}
		sh.usage = make(map[string]*Usage)
		sh.mu.Unlock()
	}
	users := make([]string, 0, len(all))
	for u := range all {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, name := range users {
		u := all[name]
		inv := Invoice{User: name, Cycle: b.cycle}
		inv.CoreHours = u.CoreHours()
		billable := inv.CoreHours - b.rates.FreeCoreHours
		if billable < 0 {
			inv.FreeCredit = inv.CoreHours
			billable = 0
		} else {
			inv.FreeCredit = b.rates.FreeCoreHours
		}
		inv.Compute = billable * b.rates.PerCoreHour
		inv.GBMonths = u.GBDays / DaysPerCycle
		inv.Storage = inv.GBMonths * b.rates.PerGBMonth
		inv.Total = inv.Compute + inv.Storage
		b.history = append(b.history, inv)
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

// Invoices returns cut invoices, optionally filtered by user ("" = all).
func (b *Biller) Invoices(user string) []Invoice {
	b.histMu.Lock()
	defer b.histMu.Unlock()
	var out []Invoice
	for _, inv := range b.history {
		if user == "" || inv.User == user {
			out = append(out, inv)
		}
	}
	return out
}

// Cycle returns the current (open) cycle number.
func (b *Biller) Cycle() int {
	b.histMu.Lock()
	defer b.histMu.Unlock()
	return b.cycle
}

func (u Usage) String() string {
	return fmt.Sprintf("%s: %.1f core-hours, %.1f GB-days", u.User, u.CoreHours(), u.GBDays)
}
