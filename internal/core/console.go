package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/lb"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
	"osdc/internal/wire"
)

// Topology picks where the utility clouds run relative to the console.
type Topology int

const (
	// SingleProcess serves both clouds from the federation engine behind
	// per-cloud loopback servers: one process, one clock. Tukey still
	// translates dialects over real HTTP.
	SingleProcess Topology = iota
	// PerSite runs every in-process cloud as its own cloudapi.Site — a
	// private engine at an offset seed, its own free-running clock and
	// listener — that the console, billing and monitoring reach only
	// through cloudapi.Remote: the paper's deployment shape (§5.2, §7).
	PerSite
	// FollowedClocks is PerSite with every site clock in follow mode: a
	// coordinator pushes the console engine's time to each site.
	FollowedClocks
)

// clockTick is the wall interval of the console clock driver.
const clockTick = 2 * time.Millisecond

// defaultSyncInterval is the coordinator push period for FollowedClocks
// when the config names none: long enough that HTTP round trips stay a
// small fraction of it, short enough for many sync rounds per run.
const defaultSyncInterval = 10 * time.Millisecond

// Grid background shape: dense synthetic hypervisors (so 10⁵ VMs need a
// few hundred host records rather than 10⁴ paper hosts), every VM
// heartbeating usage on its owning shard.
const (
	gridHostCores = 512
	gridHeartbeat = sim.Duration(30 * sim.Minute)
)

// pooledIdlePerHost is the idle-connection budget of every pooled client
// StartConsole makes. It is what keeps thousands of researchers behind a
// balancer inside the fd table: sockets are reused, not re-dialed.
const pooledIdlePerHost = 256

// ExternalSite is a cloud already running as its own process
// (cmd/cloud-site), attached by URL instead of built in-process.
type ExternalSite struct {
	Name, URL string
}

// ConsoleConfig is everything StartConsole needs to stand a live console
// federation up.
type ConsoleConfig struct {
	Seed   uint64
	Scale  int
	Shards int // kernel shard count, console side and per site; <= 1 = one engine
	// Topology places the clouds not named in Sites.
	Topology Topology
	// Sites are clouds attached by URL; a named cloud is not built
	// in-process.
	Sites []ExternalSite
	// Speedup is simulated seconds per wall second for the console clock
	// and free-running site clocks. 0 starts no driver: the kernel is left
	// shared and frozen for the caller to advance.
	Speedup float64
	// SyncInterval is the coordinator's wall push period. FollowedClocks
	// sites, and external sites that report a followed clock when it is
	// set, take their time from it; FollowedClocks defaults it to 10 ms.
	SyncInterval time.Duration
	// GridInstances makes room for that many background VMs on Adler —
	// dense hosts plus a usage heartbeat armed on each VM — before the
	// clock goes live. Single-process topology only.
	GridInstances int
	// Replicas > 0 runs the console as that many stateless replicas over
	// an in-process tukeystate plane behind an lb.Pool.
	Replicas int
	// StateURL makes the one console a replica of an external tukeystate
	// plane: sessions and admission live there, and Replica (required)
	// prefixes its tokens.
	StateURL, Replica string
	// RateLimit > 0 puts a per-user token bucket in front of the console
	// (requests/second; RateBurst 0 means 2× RateLimit).
	RateLimit, RateBurst float64
	// OperatorSecret gates operator-plane writes on every cloud server;
	// the Remotes built here carry it.
	OperatorSecret string
	// SiteTimeout is the per-request deadline on every cloud transport;
	// 0 = cloudapi.DefaultTimeout.
	SiteTimeout time.Duration
	// Serve puts the front — the balancer with Replicas, else the console
	// — on a loopback listener at Deployment.URL.
	Serve bool
}

// Deployment is a running console federation and everything Close tears
// down.
type Deployment struct {
	Fed *Federation
	// Console serves the federation's middleware (the first replica's
	// with Replicas > 0).
	Console *tukey.Console
	// URL is the front listener's address; "" unless ConsoleConfig.Serve.
	URL string
	// Client is the pooled HTTP client (60 s timeout) researchers use.
	Client *http.Client
	// SiteClient is the HTTP client every cloud transport uses.
	SiteClient *http.Client
	// Sites are the in-process per-site worlds (PerSite, FollowedClocks).
	Sites []*cloudapi.Site
	// Servers are the in-process cloud servers by cloud name.
	Servers map[string]*cloudapi.Server
	// Members are every attached cloud's /metrics endpoint.
	Members []telemetry.Member
	// DataSites are the dataset planes: OSDC-Root's masters first, then
	// each cloud's store that answers.
	DataSites []datastore.API
	// Driver advances the console kernel; nil when Speedup is 0.
	Driver *sim.Driver

	clouds      []cloudapi.CloudAPI // every cloud's transport: billing polls it, Enroll sets quotas
	syncTargets []cloudapi.ClockSyncTarget
	closers     []func() // run in reverse by Close
}

// StartConsole builds the federation and wires the console in front of it.
// It is the one place that knows the wiring order: clouds attach to Tukey,
// useCloudAPIs picks the poll set, the consoles are built on the final
// biller, the driver shares the kernel before any coordinator loop reads
// it, and Close tears down in reverse.
func StartConsole(cfg ConsoleConfig) (*Deployment, error) {
	f, err := New(Options{Seed: cfg.Seed, Scale: cfg.Scale, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Fed:       f,
		Servers:   map[string]*cloudapi.Server{},
		DataSites: []datastore.API{f.Stores[ClusterRoot]},
	}
	if err := d.start(cfg); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Deployment) start(cfg ConsoleConfig) error {
	f := d.Fed
	if cfg.Topology < SingleProcess || cfg.Topology > FollowedClocks {
		return fmt.Errorf("core: unknown topology %d", cfg.Topology)
	}
	if cfg.GridInstances > 0 {
		if cfg.Topology != SingleProcess {
			return errors.New("core: a grid background requires the single-process topology")
		}
		// Setup-phase calls: AddHost is unlocked, and SetHeartbeat arms
		// only instances launched after it.
		for i := 0; i*gridHostCores < cfg.GridInstances+gridHostCores; i++ {
			f.Adler.AddHost(iaas.NewHost(fmt.Sprintf("grid-%03d", i),
				gridHostCores, gridHostCores*4096, gridHostCores*100))
		}
		f.Adler.SetHeartbeat(gridHeartbeat)
	}
	if cfg.StateURL != "" && cfg.Replica == "" {
		return errors.New("core: a state-plane replica needs a name: replicas sharing a store must mint distinct tokens")
	}
	if cfg.StateURL != "" && cfg.RateLimit > 0 {
		return errors.New("core: with a state plane the rate limit is configured there, not on the replica")
	}
	syncEvery := cfg.SyncInterval
	if cfg.Topology == FollowedClocks && syncEvery <= 0 {
		syncEvery = defaultSyncInterval
	}
	siteTimeout := cloudapi.DefaultTimeout
	if cfg.SiteTimeout > 0 {
		siteTimeout = cfg.SiteTimeout
	}
	d.SiteClient = d.pooledClient(siteTimeout)
	d.Client = d.pooledClient(60 * time.Second)

	// --- clouds: in-process first, then external sites ---
	external := map[string]bool{}
	for _, s := range cfg.Sites {
		external[s.Name] = true
	}
	add := d.startSite
	if cfg.Topology == SingleProcess {
		add = d.serveCloud
	}
	for _, name := range []string{ClusterAdler, ClusterSullivan} {
		if external[name] {
			continue
		}
		if err := add(cfg, name); err != nil {
			return err
		}
	}
	for _, s := range cfg.Sites {
		if err := d.attachExternal(s, cfg.OperatorSecret, syncEvery > 0); err != nil {
			return err
		}
	}
	// Billing and monitoring watch the in-process clouds unless some cloud
	// sits behind a transport the default wiring does not know.
	if cfg.Topology != SingleProcess || len(cfg.Sites) > 0 {
		f.useCloudAPIs(d.clouds...)
	}

	// --- consoles, on the final biller and monitor ---
	var limiter tukey.Limiter
	switch {
	case cfg.StateURL != "":
		// One pooled client for the plane, shared by the store and the
		// limiter, as in the replicas mode below.
		stateClient := d.pooledClient(tukeystate.DefaultTimeout)
		f.Tukey.SetSessionStore(tukeystate.NewRemoteSessionStore(cfg.StateURL, stateClient))
		f.Tukey.SetTokenPrefix(cfg.Replica + "-")
		limiter = tukeystate.NewRemoteLimiter(cfg.StateURL, stateClient)
	case cfg.RateLimit > 0:
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = 2 * cfg.RateLimit
		}
		limiter = tukey.NewRateLimiter(cfg.RateLimit, burst)
	}
	newConsole := func(mw *tukey.Middleware) *tukey.Console {
		return &tukey.Console{MW: mw, Biller: f.Biller, Catalog: f.Catalog, UsageMon: f.UsageMon,
			Limiter: limiter, UsageCacheHits: d.usageCacheHits}
	}
	var front http.Handler
	if cfg.Replicas > 0 {
		// Sessions live in the state plane and only there; each replica is
		// a middleware clone (attached clouds come along) with its own
		// token prefix and listener. Researchers enrolled after this reach
		// every replica through EnrollResearcher's fan-out.
		state, err := d.serve(tukeystate.NewServer(tukey.NewMemorySessionStore(), nil))
		if err != nil {
			return err
		}
		stateClient := d.pooledClient(tukeystate.DefaultTimeout)
		urls := make([]string, cfg.Replicas)
		for k := range urls {
			c := newConsole(f.AddTukeyReplica(tukeystate.NewRemoteSessionStore(state, stateClient), fmt.Sprintf("r%d-", k)))
			if k == 0 {
				d.Console = c
			}
			if urls[k], err = d.serve(c); err != nil {
				return err
			}
		}
		front = lb.NewPool(urls, d.pooledClient(30*time.Second))
	} else {
		d.Console = newConsole(f.Tukey)
		front = d.Console
	}
	if cfg.Serve {
		var err error
		if d.URL, err = d.serve(front); err != nil {
			return err
		}
	}

	// --- clocks: the console kernel goes live last. The driver advances
	// the whole shard set; driving only the anchor would strand off-anchor
	// boot and heartbeat timers. ---
	if cfg.Speedup > 0 {
		d.Driver = sim.StartDriver(f.Set, cfg.Speedup, clockTick)
	} else {
		f.Set.Share()
	}
	// Close stops the pollers before the clock: a stop cancels the poll
	// in flight, so the driver's last tick ends at once.
	d.closers = append(d.closers, d.StopClock, func() { f.Biller.Stop(); f.UsageMon.Stop() })
	if len(d.syncTargets) > 0 {
		f.ClockSync = cloudapi.StartClockCoordinator(f.Engine, syncEvery, d.syncTargets...)
		d.Console.ClockSync = f.ClockSync
		d.closers = append(d.closers, f.ClockSync.Stop)
	}
	return nil
}

// serveCloud puts one in-process cloud behind its own loopback server on
// the federation engine and attaches it as a Remote on the site client.
func (d *Deployment) serveCloud(cfg ConsoleConfig, name string) error {
	f := d.Fed
	c, api := f.Adler, f.AdlerAPI
	if name == ClusterSullivan {
		c, api = f.Sullivan, f.SullivanAPI
	}
	srv := cloudapi.NewServer(c)
	// The shared engine is readable on each cloud's clock plane, and the
	// cloud's dataset store is served on its datasets plane.
	srv.Clock = cloudapi.EngineClock{E: f.Engine}
	srv.Datasets = f.Stores[name]
	srv.OperatorSecret = cfg.OperatorSecret
	url, err := d.serve(srv)
	if err != nil {
		return err
	}
	f.Tukey.AttachCloud(tukey.CloudConfig{API: cloudapi.NewRemote(c.Name, c.Stack, url, d.SiteClient)})
	d.Servers[name] = srv
	d.Members = append(d.Members, telemetry.Member{Name: name, URL: url})
	d.DataSites = append(d.DataSites, f.Stores[name])
	d.clouds = append(d.clouds, api)
	return nil
}

// startSite runs one cloud as its own site at an offset seed (one step
// per site already started). After this the cloud is an address.
func (d *Deployment) startSite(cfg ConsoleConfig, name string) error {
	opts := cloudapi.SiteOptions{Speedup: cfg.Speedup, OperatorSecret: cfg.OperatorSecret}
	if cfg.Topology == FollowedClocks {
		// Speedup 0 caps nothing: a followed site jumps to each target.
		opts.Clock, opts.Speedup = cloudapi.ClockFollow, 0
	}
	site, err := StartSite(name, cfg.Seed+uint64(len(d.Sites)+1)*1000, cfg.Scale, cfg.Shards, opts)
	if err != nil {
		return err
	}
	d.closers = append(d.closers, site.Close)
	d.Sites = append(d.Sites, site)
	d.Servers[name] = site.Server()
	d.DataSites = append(d.DataSites, site.DatasetsRemote(d.SiteClient))
	d.attachRemote(site.RemoteWithClient(d.SiteClient), site.URL, cfg.Topology == FollowedClocks)
	return nil
}

// attachExternal probes a running cloud-site's discovery document and
// attaches it. A site whose datasets plane does not answer joins without
// one. With sync on, the site's clock must be readable — a follower left
// out of the coordinator would freeze forever — and a site that follows
// joins the coordinator.
func (d *Deployment) attachExternal(s ExternalSite, secret string, sync bool) error {
	// StartConsole takes no context: each call is bounded by the site
	// client's timeout.
	ctx := context.Background()
	remote, err := cloudapi.ProbeRemote(ctx, s.URL, d.SiteClient)
	if err != nil {
		return err
	}
	if remote.Name() != s.Name {
		return fmt.Errorf("core: site %s reports cloud %q, not %q", s.URL, remote.Name(), s.Name)
	}
	remote.SetOperatorSecret(secret)
	follows := false
	if sync {
		st, err := remote.Clock(ctx)
		if err != nil {
			return fmt.Errorf("core: site %s at %s: clock plane unreadable with clock sync on: %w", s.Name, s.URL, err)
		}
		follows = st.Mode == cloudapi.ClockFollow.String()
	}
	if ds, err := datastore.ProbeRemote(ctx, s.URL, d.SiteClient); err == nil {
		ds.SetOperatorSecret(secret)
		d.DataSites = append(d.DataSites, ds)
	}
	d.attachRemote(remote, s.URL, follows)
	return nil
}

// attachRemote attaches a cloud reached over the wire at url: the console
// routes to it, billing polls it, the collector scrapes it, and with
// follows the coordinator pushes it the console's time.
func (d *Deployment) attachRemote(remote *cloudapi.Remote, url string, follows bool) {
	d.Fed.Tukey.AttachCloud(tukey.CloudConfig{API: remote})
	d.Members = append(d.Members, telemetry.Member{Name: remote.Name(), URL: url})
	d.clouds = append(d.clouds, remote)
	if follows {
		d.syncTargets = append(d.syncTargets, remote)
	}
}

// serve puts h on an ephemeral loopback wire.Server; Close shuts it down
// once its in-flight requests finish.
func (d *Deployment) serve(h http.Handler) (string, error) {
	srv, err := wire.Listen("127.0.0.1:0", h)
	if err != nil {
		return "", fmt.Errorf("core: loopback listener: %w", err)
	}
	d.closers = append(d.closers, srv.Close)
	return srv.URL, nil
}

// pooledClient returns a client whose transport keeps pooledIdlePerHost
// idle connections per host; Close drops them.
func (d *Deployment) pooledClient(timeout time.Duration) *http.Client {
	c := wire.NewClient(nil, timeout, pooledIdlePerHost)
	d.closers = append(d.closers, c.CloseIdleConnections)
	return c
}

// usageCacheHits reports each in-process cloud server's usage-delta cache
// hits for /console/status.
func (d *Deployment) usageCacheHits() map[string]int64 {
	out := make(map[string]int64, len(d.Servers))
	for name, srv := range d.Servers {
		out[name] = srv.UsageCacheHits.Load()
	}
	return out
}

// Enroll provisions a researcher end to end (EnrollResearcher) and sets
// their quota on every attached cloud.
func (d *Deployment) Enroll(user, password string, q iaas.Quota) error {
	d.Fed.EnrollResearcher(user, password)
	for _, api := range d.clouds {
		if err := api.SetQuota(user, q); err != nil {
			return err
		}
	}
	return nil
}

// StopClock halts the console clock driver, if any (idempotent). Site
// clocks and the coordinator keep running until Close.
func (d *Deployment) StopClock() {
	if d.Driver != nil {
		d.Driver.Stop()
	}
}

// Close stops the coordinator and every clock, then every listener and
// site, in the reverse of the order StartConsole started them.
func (d *Deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}
