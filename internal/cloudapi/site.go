package cloudapi

import (
	"fmt"
	"net/http"
	"time"

	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/wire"
)

// Site is one cloud running as its own miniature process: a private engine
// (and a clock source advancing it), the cloud it hosts, and a wire.Server
// listener serving the cloud's Server. This is the remote-topology
// building block — every service reaches a Site only through a Remote
// pointed at its URL.
//
// Clock: in ClockFreeRun mode the site's engine tracks wall time at its
// own speedup, independent of every other engine (the historic behavior);
// in ClockFollow mode a sim.Follower drives it toward targets published on
// the site's /cloudapi/clock plane, which is how a ClockCoordinator keeps
// the federation's engines within a bounded skew of the console.
type Site struct {
	Cloud *iaas.Cloud
	URL   string
	Mode  ClockMode
	// Datasets is the site's dataset store, when the site serves the data
	// plane (SiteOptions.Datasets); nil otherwise.
	Datasets datastore.API

	clock    sim.ClockSource
	follower *sim.Follower // non-nil in follow mode
	secret   string
	edge     *wire.Server
	srv      *Server
}

// siteTick is a site clock source's wall interval.
const siteTick = 2 * time.Millisecond

// SiteOptions tune how StartSite stands a site up.
type SiteOptions struct {
	// Clock picks the engine's clock source; see Site's doc comment.
	Clock ClockMode
	// Speedup is simulated seconds per wall second in free-run mode
	// (<= 0 leaves the clock frozen). In follow mode it caps the catch-up
	// rate instead (<= 0 means unbounded: jump to each target).
	Speedup float64
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
	// the engine passed to StartSite. The clock source then
	// advances all shards to a common target each tick and the cloud's
	// per-instance timers land on their owning shards. The clock plane is
	// unchanged — it publishes and follows the anchor's time, which bounds
	// every shard through the common-target invariant.
	Set *sim.ShardSet
}

// StartSite serves c's per-cloud Server on opt.Addr, with the engine
// driven per opt. The site's Server always exposes the clock plane:
// readable in both modes, sync-able only in follow mode.
func StartSite(e *sim.Engine, c *iaas.Cloud, opt SiteOptions) (*Site, error) {
	addr := opt.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if opt.Set != nil && opt.Set.Anchor() != e {
		return nil, fmt.Errorf("cloudapi: site %s: shard set's anchor is not the site engine", c.Name)
	}
	s := &Site{
		Cloud: c, Mode: opt.Clock, Datasets: opt.Datasets,
		secret: opt.OperatorSecret,
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
	var clock sim.Clock = e
	if opt.Set != nil {
		RegisterKernel(srv.Metrics, opt.Set)
		clock = opt.Set
	} else {
		RegisterEngine(srv.Metrics, "0", e)
	}
	switch opt.Clock {
	case ClockFollow:
		s.follower = sim.StartFollower(clock, opt.Speedup, siteTick)
		s.clock = s.follower
		srv.Clock = FollowerClock{F: s.follower}
	default:
		if opt.Speedup > 0 {
			s.clock = sim.StartDriver(clock, opt.Speedup, siteTick)
		} else if opt.Set != nil {
			// No clock source, but handlers may still schedule against any
			// shard (instance boot timers), so the whole set goes shared.
			opt.Set.Share()
		}
		srv.Clock = EngineClock{E: e}
	}
	edge, err := wire.Listen(addr, srv)
	if err != nil {
		if s.clock != nil {
			s.clock.Stop()
		}
		return nil, fmt.Errorf("cloudapi: site %s: %w", c.Name, err)
	}
	s.edge, s.URL = edge, edge.URL
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

// Close stops serving, so a client holding a kept-alive connection is
// refused too, and then stops the clock source (if any).
func (s *Site) Close() {
	s.edge.Close()
	if s.clock != nil {
		s.clock.Stop()
	}
}
