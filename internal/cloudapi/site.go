package cloudapi

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// Site is one cloud running as its own miniature process: a private engine
// (and a clock source advancing it), the cloud it hosts, and a loopback
// HTTP listener serving the cloud's Server. This is the remote-topology
// building block — every service reaches a Site only through a Remote
// pointed at its URL.
//
// Clock: in ClockFreeRun mode the site's engine tracks wall time at its
// own speedup, independent of every other engine (the historic behavior);
// in ClockFollow mode a sim.Follower drives it toward targets published on
// the site's /cloudapi/clock plane, which is how a ClockCoordinator keeps
// the federation's engines within a bounded skew of the console.
type Site struct {
	Engine *sim.Engine
	Cloud  *iaas.Cloud
	URL    string
	Mode   ClockMode
	// Datasets is the site's dataset store, when the site serves the data
	// plane (SiteOptions.Datasets); nil otherwise.
	Datasets datastore.API
	// Set is the site's sharded kernel when one was passed in
	// (SiteOptions.Set); Engine is then its anchor shard. Nil for a
	// single-engine site.
	Set *sim.ShardSet

	clock    sim.ClockSource
	follower *sim.Follower // non-nil in follow mode
	secret   string
	ln       net.Listener
	srv      *Server
}

// SiteOptions tune how StartSiteWithOptions stands a site up.
type SiteOptions struct {
	// Clock picks the engine's clock source; see Site's doc comment.
	Clock ClockMode
	// Speedup is simulated seconds per wall second in free-run mode
	// (<= 0 leaves the clock frozen). In follow mode it caps the catch-up
	// rate instead (<= 0 means unbounded: jump to each target).
	Speedup float64
	// Tick is the clock source's wall interval; <= 0 means 2 ms.
	Tick time.Duration
	// Addr is the listen address; "" means an ephemeral loopback port
	// (the in-process default — cmd/cloud-site passes its -addr flag).
	Addr string
	// Datasets, when set, is served as the site's /cloudapi/datasets
	// plane (typically the site's local *datastore.Store).
	Datasets datastore.API
	// OperatorSecret, when non-empty, gates operator-plane writes on the
	// site's server; Remote()s built from the site carry it.
	OperatorSecret string
	// Set, when non-nil, is the site's sharded kernel: its anchor must be
	// the engine passed to StartSiteWithOptions. The clock source then
	// advances all shards to a common target each tick and the cloud's
	// per-instance timers land on their owning shards. The clock plane is
	// unchanged — it publishes and follows the anchor's time, which bounds
	// every shard through the common-target invariant.
	Set *sim.ShardSet
}

// StartSite serves c's per-cloud Server on an ephemeral loopback port with
// a free-running clock: when speedup > 0, a wall-clock driver advances e
// (speedup simulated seconds per wall second). It is the historic
// constructor; StartSiteWithOptions adds the clock mode choice.
func StartSite(e *sim.Engine, c *iaas.Cloud, speedup float64) (*Site, error) {
	return StartSiteWithOptions(e, c, SiteOptions{Clock: ClockFreeRun, Speedup: speedup})
}

// StartSiteWithOptions serves c's per-cloud Server on an ephemeral loopback
// port, with the engine driven per opt. The site's Server always exposes
// the clock plane: readable in both modes, sync-able only in follow mode.
func StartSiteWithOptions(e *sim.Engine, c *iaas.Cloud, opt SiteOptions) (*Site, error) {
	addr := opt.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cloudapi: site %s: %w", c.Name, err)
	}
	tick := opt.Tick
	if tick <= 0 {
		tick = 2 * time.Millisecond
	}
	if opt.Set != nil && opt.Set.Anchor() != e {
		_ = ln.Close()
		return nil, fmt.Errorf("cloudapi: site %s: shard set's anchor is not the site engine", c.Name)
	}
	s := &Site{
		Engine: e, Cloud: c, Mode: opt.Clock, Datasets: opt.Datasets,
		Set: opt.Set,
		URL: "http://" + ln.Addr().String(), ln: ln, secret: opt.OperatorSecret,
	}
	if opt.Set != nil {
		c.SetShards(opt.Set)
	}
	srv := NewServer(c)
	srv.Datasets = opt.Datasets
	srv.OperatorSecret = opt.OperatorSecret
	s.srv = srv
	// The site's kernel is its own: its engine series belong on the site's
	// /metrics, where the federation collector picks them up per member.
	if opt.Set != nil {
		RegisterKernel(srv.Metrics, opt.Set)
	} else {
		RegisterEngine(srv.Metrics, "0", e)
	}
	switch opt.Clock {
	case ClockFollow:
		if opt.Set != nil {
			s.follower = sim.StartShardFollower(opt.Set, opt.Speedup, tick)
		} else {
			s.follower = sim.StartFollower(e, opt.Speedup, tick)
		}
		s.clock = s.follower
		srv.Clock = FollowerClock{F: s.follower}
	default:
		if opt.Speedup > 0 {
			if opt.Set != nil {
				s.clock = sim.StartShardDriver(opt.Set, opt.Speedup, tick)
			} else {
				s.clock = sim.StartDriver(e, opt.Speedup, tick)
			}
		} else if opt.Set != nil {
			// No clock source, but handlers may still schedule against any
			// shard (instance boot timers), so the whole set goes shared.
			opt.Set.Share()
		}
		srv.Clock = EngineClock{E: e}
	}
	go func() { _ = http.Serve(ln, srv) }()
	return s, nil
}

// RemoteWithClient returns a client for this site using the given HTTP
// client (nil for a private client with DefaultTimeout).
func (s *Site) RemoteWithClient(client *http.Client) *Remote {
	r := NewRemote(s.Cloud.Name, s.Cloud.Stack, s.URL, client)
	r.SetOperatorSecret(s.secret)
	return r
}

// DatasetsRemote returns a data-plane client for this site, carrying the
// site's operator secret when one is set. Nil when the site serves no
// datasets plane.
func (s *Site) DatasetsRemote(client *http.Client) *datastore.Remote {
	if s.Datasets == nil {
		return nil
	}
	r := datastore.NewRemote(s.Datasets.Name(), s.Datasets.Loc(), s.URL, client)
	r.SetOperatorSecret(s.secret)
	return r
}

// Follower returns the follower driving this site's clock, or nil in
// free-run mode.
func (s *Site) Follower() *sim.Follower { return s.follower }

// Server returns the site's HTTP server — the handle services use to
// reach its telemetry registry or usage-cache counters in-process.
func (s *Site) Server() *Server { return s.srv }

// Close stops the clock source (if any) and the listener.
func (s *Site) Close() {
	if s.clock != nil {
		s.clock.Stop()
	}
	_ = s.ln.Close()
}
