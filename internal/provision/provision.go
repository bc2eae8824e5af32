// Package provision implements the OSDC's automated bare-metal provisioning
// pipeline (paper §7.3): IPMI power control triggers a PXE network boot,
// the PXE server hands out a start-up image and a preseed file, the
// installer lays down Ubuntu Server from a repository proxy, post-install
// scripts configure networking, a reboot script verifies IPMI and finishes
// partitioning/RAID, and finally a Chef client checks in with the Chef
// server and converges the node on its role's run-list.
//
// The paper's claim: the first manual rack install "took over a week"; the
// automated pipeline takes "a full rack from bare metal to a compute or
// storage cloud in much less than a day". Both paths are modelled so the
// benchmark reproduces that comparison.
package provision

import (
	"fmt"
	"sort"

	"osdc/internal/sim"
)

// Role selects a node's Chef run-list.
type Role string

// Node roles in an OSDC rack.
const (
	RoleManagement Role = "management"
	RoleCompute    Role = "compute"
	RoleStorage    Role = "storage"
)

// Recipe is one Chef recipe: an idempotent configuration step.
type Recipe struct {
	Name string
	Dur  sim.Duration // convergence time
}

// RunList returns the Chef run-list for a role.
func RunList(role Role) []Recipe {
	base := []Recipe{
		{"ntp", 20}, {"users", 30}, {"ssh-hardening", 25}, {"nagios-nrpe", 60},
	}
	switch role {
	case RoleManagement:
		return append(base, Recipe{"chef-server", 300}, Recipe{"pxe-dhcp-tftp", 240},
			Recipe{"apt-proxy", 120}, Recipe{"openstack-controller", 600})
	case RoleStorage:
		return append(base, Recipe{"raid-arrays", 400}, Recipe{"glusterfs-server", 300},
			Recipe{"samba-export", 120})
	default: // compute
		return append(base, Recipe{"kvm-hypervisor", 240}, Recipe{"nova-compute", 300},
			Recipe{"glusterfs-client", 90})
	}
}

// Phase is a provisioning pipeline stage.
type Phase string

// Pipeline phases, in order.
const (
	PhaseBareMetal Phase = "bare-metal"
	PhaseIPMIBoot  Phase = "ipmi-boot"
	PhasePXE       Phase = "pxe-boot"
	PhaseOSInstall Phase = "os-install"
	PhaseNetConfig Phase = "post-install-network"
	PhaseReboot    Phase = "reboot-verify-raid"
	PhaseChefRun   Phase = "chef-converge"
	PhaseCleanup   Phase = "cleanup"
	PhaseReady     Phase = "ready"
	PhaseFailed    Phase = "failed"
)

// Server is one rack server being provisioned.
type Server struct {
	Name    string
	Role    Role
	Phase   Phase
	Applied []string // converged recipes
	Retries int
}

// Durations parameterize the automated pipeline (seconds). Defaults are
// typical for 2012 hardware and an on-site apt proxy.
type Durations struct {
	IPMI      sim.Duration // power cycle + BMC handshake
	PXE       sim.Duration // DHCP/TFTP + kernel fetch
	OSInstall sim.Duration // preseeded Ubuntu Server install
	NetConfig sim.Duration // post-install script
	Reboot    sim.Duration // reboot + IPMI check + RAID finish
	Cleanup   sim.Duration
}

// DefaultDurations is the calibrated automated path: ≈1.2 h/server
// end-to-end plus Chef convergence.
func DefaultDurations() Durations {
	return Durations{
		IPMI: 120, PXE: 180, OSInstall: 1500, NetConfig: 300,
		Reboot: 600, Cleanup: 180,
	}
}

// Pipeline is the automated provisioning system: one PXE/Chef server pair
// driving a rack.
type Pipeline struct {
	engine *sim.Engine
	dur    Durations
	rng    *sim.RNG
	// FailureProb is the per-phase transient failure probability; failures
	// retry from the IPMI step (as the real pipeline does).
	FailureProb float64

	// installFree is when each install slot frees up. The slots bound
	// concurrent OS installs (apt mirror / PXE TFTP bandwidth).
	installFree []sim.Time
}

// NewPipeline creates the automated pipeline with installSlots concurrent
// OS installs (16 when <= 0). The paper's rack is 39 servers; ~16
// concurrent installs is what one gigabit mirror sustains.
func NewPipeline(e *sim.Engine, dur Durations, installSlots int, failureProb float64) *Pipeline {
	if installSlots <= 0 {
		installSlots = 16
	}
	return &Pipeline{
		engine: e, dur: dur, rng: e.RNG().Fork(),
		FailureProb: failureProb, installFree: make([]sim.Time, installSlots),
	}
}

// Provision drives one server bare-metal→ready; done fires on completion.
func (p *Pipeline) Provision(s *Server, done func(*Server)) {
	s.Phase = PhaseBareMetal
	p.step(s, done)
}

// step advances the server one phase.
func (p *Pipeline) step(s *Server, done func(*Server)) {
	fail := func() bool {
		if p.rng.Bernoulli(p.FailureProb) {
			s.Retries++
			s.Phase = PhaseBareMetal
			// Restart after an operator-visible backoff.
			p.engine.After(300, func() { p.step(s, done) })
			return true
		}
		return false
	}
	switch s.Phase {
	case PhaseBareMetal:
		s.Phase = PhaseIPMIBoot
		p.engine.After(p.dur.IPMI, func() { p.step(s, done) })
	case PhaseIPMIBoot:
		if fail() {
			return
		}
		s.Phase = PhasePXE
		p.engine.After(p.dur.PXE, func() { p.step(s, done) })
	case PhasePXE:
		if fail() {
			return
		}
		s.Phase = PhaseOSInstall
		// Queue for an install slot (mirror bandwidth).
		slot := 0
		for i := range p.installFree {
			if p.installFree[i] < p.installFree[slot] {
				slot = i
			}
		}
		start := p.installFree[slot]
		if start < p.engine.Now() {
			start = p.engine.Now()
		}
		end := start + sim.Time(p.dur.OSInstall)
		p.installFree[slot] = end
		p.engine.At(end, func() { p.step(s, done) })
	case PhaseOSInstall:
		if fail() {
			return
		}
		s.Phase = PhaseNetConfig
		p.engine.After(p.dur.NetConfig, func() { p.step(s, done) })
	case PhaseNetConfig:
		s.Phase = PhaseReboot
		p.engine.After(p.dur.Reboot, func() { p.step(s, done) })
	case PhaseReboot:
		if fail() {
			return
		}
		s.Phase = PhaseChefRun
		var total sim.Duration
		for _, r := range RunList(s.Role) {
			total += r.Dur
		}
		p.engine.After(total, func() {
			for _, r := range RunList(s.Role) {
				s.Applied = append(s.Applied, r.Name)
			}
			p.step(s, done)
		})
	case PhaseChefRun:
		s.Phase = PhaseCleanup
		p.engine.After(p.dur.Cleanup, func() { p.step(s, done) })
	case PhaseCleanup:
		s.Phase = PhaseReady
		if done != nil {
			done(s)
		}
	}
}

// RackResult summarizes a full-rack provisioning run.
type RackResult struct {
	Servers  []*Server
	Duration sim.Duration // bare metal → every node ready
	Retries  int
}

// ProvisionRack drives a full rack: the management node first (it hosts the
// PXE/Chef services for the rest), then all remaining servers in parallel.
// Returns when every node is ready.
func ProvisionRack(e *sim.Engine, p *Pipeline, servers int) RackResult {
	if servers < 2 {
		panic("provision: a rack needs a management node plus workers")
	}
	start := e.Now()
	res := RackResult{}
	mgmt := &Server{Name: "node-00", Role: RoleManagement}
	res.Servers = append(res.Servers, mgmt)
	remaining := servers - 1
	doneAll := false
	p.Provision(mgmt, func(*Server) {
		for i := 1; i < servers; i++ {
			role := RoleCompute
			if i <= 4 {
				role = RoleStorage // first few servers carry gluster bricks
			}
			s := &Server{Name: fmt.Sprintf("node-%02d", i), Role: role}
			res.Servers = append(res.Servers, s)
			p.Provision(s, func(*Server) {
				remaining--
				if remaining == 0 {
					doneAll = true
				}
			})
		}
	})
	for !doneAll && e.Step() {
	}
	res.Duration = sim.Duration(e.Now() - start)
	for _, s := range res.Servers {
		res.Retries += s.Retries
	}
	sort.Slice(res.Servers, func(i, j int) bool { return res.Servers[i].Name < res.Servers[j].Name })
	return res
}

// ManualParams model the first, hand-installed rack.
type ManualParams struct {
	HandsOnPerServer sim.Duration // undivided attention per server
	WorkdayHours     float64      // hands-on hours per day
	Technicians      int
}

// DefaultManual reflects the paper's experience: ~2.5 h hands-on per
// server, one admin working 8-hour days — "over a week" for 39 servers.
func DefaultManual() ManualParams {
	return ManualParams{HandsOnPerServer: 2.5 * sim.Hour, WorkdayHours: 8, Technicians: 1}
}

// ManualRackTime computes wall-clock days for a manual rack install:
// serialized hands-on work, bounded by the workday, including one
// inevitable re-do of a misconfigured server per rack.
func ManualRackTime(p ManualParams, servers int) sim.Duration {
	if p.Technicians < 1 {
		p.Technicians = 1
	}
	handsOn := p.HandsOnPerServer * float64(servers+1) / float64(p.Technicians) // +1: the re-do
	workdays := handsOn / (p.WorkdayHours * sim.Hour)
	return workdays * sim.Day
}
