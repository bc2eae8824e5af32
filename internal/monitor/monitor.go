// Package monitor implements the OSDC's two monitoring systems (paper
// §7.4):
//
//  1. A Nagios-like system/network monitor: a master server asks NRPE-like
//     agents on remote hosts to run checks; binary plugins compare values
//     against Warning and Critical thresholds; threshold crossings raise
//     alerts to the system administrators.
//  2. An in-house cloud-usage monitor whose high-level summary is published
//     on the OSDC website (instances per user, cloud status).
//
// Both poll on the simulation clock and fold their results on the
// clock-driving goroutine in a fixed order, so alerts and snapshots stay
// deterministic. The master runs its agents' in-process plugins host by
// host; the usage monitor fans out per cloud through its own
// cloudapi.UsagePoller (the sampler the biller also uses, at the monitor's
// cadence), each sample cancelled at its wall deadline.
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/sim"
)

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
// Alerts; mu covers the agent table, the state map and the alert log.
type Master struct {
	engine *sim.Engine

	mu     sync.Mutex
	agents map[string]*Agent
	last   map[string]State // "host/check" -> last state
	alerts []Alert
}

// NewMaster starts a master polling all registered agents every interval.
// Fired alerts are logged, in order, for Alerts.
func NewMaster(e *sim.Engine, interval sim.Duration) *Master {
	m := &Master{engine: e, agents: make(map[string]*Agent), last: make(map[string]State)}
	e.Every(interval, m.pollAll)
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
	agents := make([]*Agent, 0, len(m.agents))
	for _, a := range m.agents {
		agents = append(agents, a)
	}
	m.mu.Unlock()
	sort.Slice(agents, func(i, j int) bool { return agents[i].Host < agents[j].Host })
	now := m.engine.Now()

	// Each check runs outside m.mu (plugins reach into other subsystems —
	// disk models, clouds — with locks of their own), host by host in
	// sorted order, so the alert log stays deterministic.
	for _, a := range agents {
		for _, name := range a.CheckNames() {
			st, v, err := a.RunCheck(name)
			if err != nil {
				st = StateUnknown
			}
			key := a.Host + "/" + name
			m.mu.Lock()
			if st != m.last[key] && st != StateOK {
				m.alerts = append(m.alerts, Alert{Host: a.Host, Check: name, State: st, Value: v, At: now})
			}
			m.last[key] = st
			m.mu.Unlock()
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
	usage  *cloudapi.UsagePoller
	ticker *sim.Ticker

	mu     sync.Mutex
	latest map[string]UsageSnapshot

	// deadline bounds one cloud sample's wall time; defaults to
	// cloudapi.PollDeadline; the tests shorten it.
	deadline time.Duration
}

// NewUsageMonitor starts sampling every interval.
func NewUsageMonitor(e *sim.Engine, clouds []cloudapi.CloudAPI, interval sim.Duration) *UsageMonitor {
	um := &UsageMonitor{engine: e, clouds: clouds, usage: cloudapi.NewUsagePoller(clouds),
		latest: make(map[string]UsageSnapshot), deadline: cloudapi.PollDeadline}
	um.ticker = e.Every(interval, um.sample)
	return um
}

// SampleErrorsByCloud returns each cloud's sample-failure count, zero
// entries included.
func (um *UsageMonitor) SampleErrorsByCloud() map[string]int64 { return um.usage.ErrorsByCloud() }

// sample summarizes every cloud's maintained usage snapshot — the same
// delta-polled path the biller uses (cloudapi.UsagePoller), with its own
// poller and cadence. A cloud whose sample errored or was cancelled at the
// per-poll deadline counts in SampleErrorsByCloud and keeps its previous
// summary.
func (um *UsageMonitor) sample() {
	now := um.engine.Now()
	for i, u := range um.usage.Poll(um.deadline) {
		if u == nil {
			continue
		}
		name := um.clouds[i].Name()
		snap := UsageSnapshot{
			At: now, Cloud: name,
			UsedCores: u.UsedCores, TotalCores: u.TotalCores,
			ActiveUsers: len(u.ByUser),
		}
		for _, v := range u.ByUser {
			snap.RunningVMs += v.Instances
		}
		um.mu.Lock()
		um.latest[name] = snap
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

// Stop halts sampling; a sample in flight returns at once.
func (um *UsageMonitor) Stop() {
	um.ticker.Stop()
	um.usage.Stop()
}
