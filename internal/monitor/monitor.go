// Package monitor implements the OSDC's two monitoring systems (paper
// §7.4):
//
//  1. A Nagios-like system/network monitor: a master server asks NRPE-like
//     agents on remote hosts to run checks; binary plugins compare values
//     against Warning and Critical thresholds; threshold crossings raise
//     alerts to the system administrators.
//  2. An in-house cloud-usage monitor whose high-level summary is published
//     on the OSDC website (instances per user, cloud status).
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/fanout"
	"osdc/internal/sim"
)

// pollWorkers bounds the monitoring fan-out (master agent sweeps and
// usage-monitor samples) — the same worker count the ClockCoordinator
// pushes with.
const pollWorkers = 8

// pollDeadline is the wall budget one agent sweep or cloud sample gets
// before the poll abandons the wait (half the Remote transport's own
// timeout). Abandoned polls surface in the error counters; late results
// are discarded.
const pollDeadline = cloudapi.DefaultTimeout / 2

// State is a Nagios check state.
type State int

// Nagios states.
const (
	StateOK State = iota
	StateWarning
	StateCritical
	StateUnknown
)

func (s State) String() string {
	switch s {
	case StateOK:
		return "OK"
	case StateWarning:
		return "WARNING"
	case StateCritical:
		return "CRITICAL"
	default:
		return "UNKNOWN"
	}
}

// Check is one configured service check: a plugin measuring a value with
// Warning/Critical thresholds (crossed when the value is ≥ threshold).
type Check struct {
	Name   string
	Plugin func() (float64, error)
	Warn   float64
	Crit   float64
}

// Evaluate runs the plugin and classifies the result.
func (c Check) Evaluate() (State, float64) {
	v, err := c.Plugin()
	if err != nil {
		return StateUnknown, 0
	}
	switch {
	case v >= c.Crit:
		return StateCritical, v
	case v >= c.Warn:
		return StateWarning, v
	default:
		return StateOK, v
	}
}

// Agent is the NRPE-like remote agent: it holds the checks configured for
// one host and runs them on request from the master. Checks are registered
// at setup time, before polling starts; the check table is read-only after
// that, so RunCheck needs no lock.
type Agent struct {
	Host   string
	checks map[string]Check
}

// NewAgent creates an agent for a host.
func NewAgent(host string) *Agent {
	return &Agent{Host: host, checks: make(map[string]Check)}
}

// Register adds a check to the agent's configuration.
func (a *Agent) Register(c Check) { a.checks[c.Name] = c }

// RunCheck executes one named check (the NRPE request path).
func (a *Agent) RunCheck(name string) (State, float64, error) {
	c, ok := a.checks[name]
	if !ok {
		return StateUnknown, 0, fmt.Errorf("monitor: host %s has no check %q", a.Host, name)
	}
	st, v := c.Evaluate()
	return st, v, nil
}

// CheckNames lists the agent's configured checks, sorted.
func (a *Agent) CheckNames() []string {
	out := make([]string, 0, len(a.checks))
	for n := range a.checks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Alert is a notification sent to administrators on a threshold crossing.
type Alert struct {
	Host  string
	Check string
	State State
	Value float64
	At    sim.Time
}

// Master is the Nagios master server: it polls every agent's checks on an
// interval and alerts on state transitions (not on steady bad states —
// Nagios-style notification on change, with re-notification left out).
//
// pollAll fires on the clock-driving goroutine while status pages read
// Alerts/StateOf; mu covers the agent table, the state map, the alert log
// and the ChecksRun counter. The notify callback is invoked without the
// lock held.
type Master struct {
	engine *sim.Engine
	notify func(Alert)
	ticker *sim.Ticker

	mu     sync.Mutex
	agents map[string]*Agent
	last   map[string]State // "host/check" -> last state
	alerts []Alert

	ChecksRun int64
	// PollsAbandoned counts agent sweeps that missed their per-poll
	// deadline (a hung plugin); read with atomic.LoadInt64 while polling
	// may fire.
	PollsAbandoned int64

	// deadline bounds one agent sweep's wall time; defaults to
	// pollDeadline; the tests shorten it.
	deadline time.Duration
}

// NewMaster starts a master polling all registered agents every interval.
// notify (may be nil) receives alerts as they fire.
func NewMaster(e *sim.Engine, interval sim.Duration, notify func(Alert)) *Master {
	m := &Master{
		engine: e, agents: make(map[string]*Agent),
		last: make(map[string]State), notify: notify,
		deadline: pollDeadline,
	}
	m.ticker = e.Every(interval, m.pollAll)
	return m
}

// AddAgent registers a host's agent with the master.
func (m *Master) AddAgent(a *Agent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.agents[a.Host] = a
}

func (m *Master) pollAll() {
	m.mu.Lock()
	hosts := make([]string, 0, len(m.agents))
	for h := range m.agents {
		hosts = append(hosts, h)
	}
	m.mu.Unlock()
	sort.Strings(hosts)
	now := m.engine.Now()

	// One task per agent host: the whole sweep runs outside m.mu (plugins
	// reach into other subsystems — disk models, clouds — with locks of
	// their own) and the hosts fan out over the bounded pool so one slow
	// plugin does not serialize every other host's sweep. Results land in
	// per-host slots; state transitions and alerts are then applied on
	// this goroutine in sorted host order, so the alert log stays
	// deterministic regardless of which host finished first.
	type result struct {
		name  string
		state State
		value float64
	}
	type slot struct {
		mu  sync.Mutex // an abandoned sweep may write late
		res []result
	}
	slots := make([]slot, len(hosts))
	tasks := make([]func(), len(hosts))
	for i, h := range hosts {
		m.mu.Lock()
		a := m.agents[h]
		m.mu.Unlock()
		i, a := i, a
		tasks[i] = func() {
			names := a.CheckNames()
			res := make([]result, 0, len(names))
			for _, name := range names {
				st, v, err := a.RunCheck(name)
				if err != nil {
					st = StateUnknown
				}
				res = append(res, result{name: name, state: st, value: v})
			}
			slots[i].mu.Lock()
			slots[i].res = res
			slots[i].mu.Unlock()
		}
	}
	completed := fanout.Each(pollWorkers, m.deadline, tasks)

	var fired []Alert
	for i, h := range hosts {
		if !completed[i] {
			atomic.AddInt64(&m.PollsAbandoned, 1)
			continue
		}
		slots[i].mu.Lock()
		res := slots[i].res
		slots[i].mu.Unlock()
		for _, r := range res {
			key := h + "/" + r.name
			m.mu.Lock()
			m.ChecksRun++
			if r.state != m.last[key] && r.state != StateOK {
				al := Alert{Host: h, Check: r.name, State: r.state, Value: r.value, At: now}
				m.alerts = append(m.alerts, al)
				fired = append(fired, al)
			}
			m.last[key] = r.state
			m.mu.Unlock()
		}
	}
	if m.notify != nil {
		for _, al := range fired {
			m.notify(al)
		}
	}
}

// Alerts returns all fired alerts.
func (m *Master) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// --- the in-house cloud usage monitor ---

// UsageSnapshot is the public high-level cloud summary (§7.4: "the high
// level summary of the cloud status is made public on the OSDC website").
type UsageSnapshot struct {
	At          sim.Time
	Cloud       string
	RunningVMs  int
	UsedCores   int
	TotalCores  int
	ActiveUsers int
}

// UsageMonitor samples the attached clouds periodically through their
// cloudapi transports — in-process Local wrappers or HTTP Remotes, the
// monitor does not care. sample fires on the clock-driving goroutine while
// PublicStatus serves web requests; mu covers the snapshot table.
type UsageMonitor struct {
	engine *sim.Engine
	clouds []cloudapi.CloudAPI
	ticker *sim.Ticker

	mu     sync.Mutex
	latest map[string]UsageSnapshot

	// SampleErrors counts failed cloud samples (an unreachable remote
	// site); read it with atomic.LoadInt64 while sampling may fire.
	SampleErrors int64
	// errByCloud breaks SampleErrors down per cloud; keys fixed at
	// construction, values atomic.
	errByCloud map[string]*int64

	// deadline bounds one cloud sample's wall time; defaults to
	// pollDeadline; the tests shorten it.
	deadline time.Duration

	// The reused delta-sampling machinery, mirroring billing.Biller: slots
	// and tasks are built once at construction (no per-tick allocation),
	// prior holds each cloud's maintained per-user snapshot and next-poll
	// revision (clock goroutine only), and gen stamps each sweep so an
	// abandoned task cannot write a stale result into a later sweep.
	slots []sampleSlot
	tasks []func()
	prior []cloudUsageState
	gen   uint64
}

// sampleSlot is one cloud's reused result cell; the mutex guards against
// a late write from an abandoned sample, the gen match discards it.
type sampleSlot struct {
	mu    sync.Mutex
	gen   uint64
	since int64
	d     cloudapi.UsageDelta
	err   error
}

// cloudUsageState is one cloud's maintained usage snapshot under delta
// polling. Only the clock-driving goroutine touches it.
type cloudUsageState struct {
	since  int64
	byUser map[string]cloudapi.UserUsage
}

// apply folds a delta into the snapshot.
func (st *cloudUsageState) apply(d cloudapi.UsageDelta) {
	if d.Reset || st.byUser == nil {
		st.byUser = make(map[string]cloudapi.UserUsage, len(d.Changed))
	}
	for user, v := range d.Changed {
		st.byUser[user] = v
	}
	for _, user := range d.Removed {
		delete(st.byUser, user)
	}
	st.since = d.Rev
}

// errSampleAbandoned pre-fills a slot each sweep so a slot whose task
// never ran reads as a failure, never as a stale success.
var errSampleAbandoned = errors.New("monitor: sample abandoned before the cloud answered")

// NewUsageMonitor starts sampling every interval.
func NewUsageMonitor(e *sim.Engine, clouds []cloudapi.CloudAPI, interval sim.Duration) *UsageMonitor {
	um := &UsageMonitor{engine: e, clouds: clouds, latest: make(map[string]UsageSnapshot),
		deadline: pollDeadline}
	um.errByCloud = make(map[string]*int64, len(clouds))
	for _, c := range clouds {
		um.errByCloud[c.Name()] = new(int64)
	}
	um.slots = make([]sampleSlot, len(clouds))
	um.prior = make([]cloudUsageState, len(clouds))
	um.tasks = make([]func(), len(clouds))
	for i, c := range clouds {
		i, c := i, c
		um.tasks[i] = func() {
			s := &um.slots[i]
			s.mu.Lock()
			gen, since := s.gen, s.since
			s.mu.Unlock()
			d, err := c.UsageSince(since)
			s.mu.Lock()
			if s.gen == gen { // a later sweep may have re-armed the slot
				s.d, s.err = d, err
			}
			s.mu.Unlock()
		}
	}
	um.ticker = e.Every(interval, um.sample)
	return um
}

// SampleErrorsByCloud returns each cloud's sample-failure count, zero
// entries included.
func (um *UsageMonitor) SampleErrorsByCloud() map[string]int64 {
	out := make(map[string]int64, len(um.errByCloud))
	for name, n := range um.errByCloud {
		out[name] = atomic.LoadInt64(n)
	}
	return out
}

// sample queries every cloud concurrently through the bounded pool —
// sample fires on the clock-driving goroutine, and one hung remote site
// polled serially would stall the clock for every site behind it. A
// sample that misses the per-poll deadline counts against that cloud in
// SampleErrorsByCloud; its late result is discarded.
// The sweep polls incrementally: each task asks UsageSince(prior rev)
// and the clock goroutine folds the churn into the cloud's maintained
// snapshot before summarizing it — the same delta path the biller uses,
// so a steady-state sweep ships empty deltas, not full per-user maps.
func (um *UsageMonitor) sample() {
	now := um.engine.Now()
	um.gen++
	for i := range um.slots {
		s := &um.slots[i]
		s.mu.Lock()
		s.gen, s.since = um.gen, um.prior[i].since
		s.err = errSampleAbandoned
		s.mu.Unlock()
	}
	completed := fanout.Each(pollWorkers, um.deadline, um.tasks)
	for i, c := range um.clouds {
		if !completed[i] {
			atomic.AddInt64(&um.SampleErrors, 1)
			atomic.AddInt64(um.errByCloud[c.Name()], 1)
			continue
		}
		s := &um.slots[i]
		s.mu.Lock()
		d, err := s.d, s.err
		s.mu.Unlock()
		if err != nil {
			atomic.AddInt64(&um.SampleErrors, 1)
			atomic.AddInt64(um.errByCloud[c.Name()], 1)
			continue
		}
		st := &um.prior[i]
		st.apply(d)
		snap := UsageSnapshot{
			At: now, Cloud: c.Name(),
			UsedCores: d.UsedCores, TotalCores: d.TotalCores,
			ActiveUsers: len(st.byUser),
		}
		for _, v := range st.byUser {
			snap.RunningVMs += v.Instances
		}
		um.mu.Lock()
		um.latest[c.Name()] = snap
		um.mu.Unlock()
	}
}

// PublicStatus returns the latest snapshot per cloud, sorted by name.
func (um *UsageMonitor) PublicStatus() []UsageSnapshot {
	um.mu.Lock()
	defer um.mu.Unlock()
	names := make([]string, 0, len(um.latest))
	for n := range um.latest {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]UsageSnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, um.latest[n])
	}
	return out
}

// Stop halts sampling.
func (um *UsageMonitor) Stop() { um.ticker.Stop() }
