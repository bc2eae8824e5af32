// Command tukey-server runs the Tukey Console and middleware as a real HTTP
// service over a freshly built OSDC federation, with both cloud stacks'
// native APIs mounted on loopback. A demo researcher account
// (demo / demo-pw, Shibboleth) is pre-enrolled.
//
// A wall-clock driver advances the federation's simulation clock while the
// server runs (default 60 simulated seconds per wall second, so a wall
// minute meters an hour of VM time): billing pollers, monitoring sweeps and
// VM boot timers all fire under live traffic, and /console/usage actually
// accrues.
//
// Topology: by default both clouds share the federation engine behind
// per-cloud loopback servers (single process, one clock). With
// -remote-clouds every cloud instead runs as its own site — a private
// sim.Engine, its own clock source, its own HTTP listener — and the
// console, billing and monitoring reach it only through cloudapi.Remote
// clients speaking the cloud's native dialect, the paper's actual
// deployment shape (§5.2, §7). With -site name=url a cloud is not built
// in-process at all: the named cloud is expected to be an externally
// running cloud-site process (cmd/cloud-site), attached by URL.
//
// Clock plane: -clock-sync <interval> puts every in-process remote site in
// follow mode and starts a coordinator pushing the console engine's
// virtual time to each followed site (in-process or external) every
// interval, bounding cross-engine skew to about one sync interval. The
// console's own clock is served at GET /clock for cloud-site processes
// that poll rather than accept pushes.
//
// Data plane: -replication-factor N starts the replication coordinator —
// every catalog dataset is kept at N replicas across the sites' dataset
// stores (OSDC-Root holds the master copies; each cloud site serves its
// store on /cloudapi/datasets), transfers priced as simulated UDT flows
// over the WAN topology. The console gains /console/datasets/replicas
// (placement view) and /console/datasets/stage (pre-launch placement).
//
// Auth: -operator-secret gates every mutating operator-plane request on
// the cloud servers (clock targets, quotas, dataset replicas) behind a
// shared-secret header; pass the same value to external cloud-sites.
//
// Usage:
//
//	tukey-server [-addr :8080] [-speedup 60] [-shards K] [-session-ttl 12h]
//	             [-session-file sessions.json] [-remote-clouds]
//	             [-site name=url ...] [-clock-sync 50ms]
//	             [-site-timeout 10s] [-rate-limit N] [-rate-burst M]
//	             [-replication-factor N] [-replication-interval 200ms]
//	             [-operator-secret S] [-state-url http://...] [-replica r1]
//
// Replica mode: with -state-url the server keeps no session or rate-limit
// state of its own — tokens resolve through the tukey-state service and
// admission draws on its shared per-user budgets, so any number of such
// replicas (each with a distinct -replica name) behind cmd/tukey-lb behave
// as one console: kill a replica and its users' sessions keep working on
// the survivors. GET /healthz is the balancer's probe endpoint.
//
// Then:
//
//	curl -s -X POST localhost:8080/login \
//	  -d '{"provider":"shibboleth","username":"demo","secret":"demo-pw"}'
//	curl -s localhost:8080/console/instances -H "X-Tukey-Session: <token>"
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
)

// sitePair is one -site flag value: an externally running cloud-site to
// attach instead of building that cloud in-process.
type sitePair struct {
	name string
	url  string
}

// siteList collects repeated -site flags.
type siteList []sitePair

func (s *siteList) String() string {
	parts := make([]string, len(*s))
	for i, p := range *s {
		parts[i] = p.name + "=" + p.url
	}
	return strings.Join(parts, ",")
}

func (s *siteList) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return errors.New("want name=url")
	}
	for _, p := range *s {
		if p.name == name {
			return fmt.Errorf("cloud %s attached twice", name)
		}
	}
	*s = append(*s, sitePair{name: name, url: url})
	return nil
}

// options bundle the server knobs (one struct so tests can set exactly
// what they exercise).
type options struct {
	seed         uint64
	shards       int           // kernel shard count on the live path; <= 1 = single engine
	speedup      float64       // simulated seconds per wall second; <= 0 freezes every clock
	sessionTTL   time.Duration // 0 = sessions never expire
	sessionFile  string        // persistent session store; "" = in-memory
	remoteClouds bool          // per-site topology: one engine + listener per cloud
	sites        siteList      // externally running cloud-sites to attach by URL
	siteTimeout  time.Duration // per-request deadline on site transports; 0 = cloudapi.DefaultTimeout
	clockSync    time.Duration // push console time to followed sites this often; 0 = free-run
	rateLimit    float64       // per-user console requests/second; 0 = off
	rateBurst    float64       // per-user burst; 0 = 2× rateLimit
	// replicationFactor keeps every catalog dataset at N replicas across
	// the site stores; 0 leaves the data plane passive (stores served,
	// no coordinator).
	replicationFactor   int
	replicationInterval time.Duration // coordinator round period; 0 = 200ms
	operatorSecret      string        // gates operator-plane writes when set
	// stateURL points at a tukey-state service; when set this replica holds
	// no session or rate-limit state of its own — sessions resolve through
	// a RemoteSessionStore and admission through a RemoteLimiter, so any
	// number of replicas behind tukey-lb behave as one console.
	stateURL string
	// replica names this replica; it becomes the session-token prefix, so
	// replicas sharing a state plane never mint colliding tokens. Required
	// when stateURL is set.
	replica string
	// telemetryScrape starts the cross-site collector: every interval the
	// console scrapes each attached cloud's /metrics and folds the series
	// (member-labelled) into its own plane. 0 = no collector.
	telemetryScrape time.Duration
	// streamPeriod is the /console/stream cadence in simulated seconds
	// (virtual clock, so frames land deterministically); 0 = 1s.
	streamPeriod float64
}

// server is the assembled service: the federation, its console handler,
// the clock drivers keeping the simulation(s) live, and every listener to
// shut down.
type server struct {
	fed       *core.Federation
	console   *tukey.Console
	handler   http.Handler     // console plus the /clock coordinator endpoint
	driver    *sim.Driver      // console-side clock; nil when frozen
	sites     []*cloudapi.Site // per-cloud worlds in -remote-clouds mode
	metrics   *telemetry.Registry
	collector *telemetry.Collector // cross-site scraper; nil without -telemetry-scrape
	stream    *telemetry.Streamer
	close     func() // shuts the native-API listeners down
}

// newServer builds the federation in the requested topology, enrolls the
// demo researcher, and starts the clock source(s) and coordinator.
func newServer(opt options) (*server, error) {
	f, err := core.New(core.Options{Seed: opt.seed, Scale: 4, Shards: opt.shards})
	if err != nil {
		return nil, err
	}
	if opt.sessionTTL > 0 {
		f.Tukey.SetSessionTTL(opt.sessionTTL)
	}
	if opt.sessionFile != "" {
		store, err := tukey.NewFileSessionStore(opt.sessionFile)
		if err != nil {
			return nil, err
		}
		f.Tukey.SetSessionStore(store)
		if n := store.Count(); n > 0 {
			log.Printf("session store %s: %d sessions survive the restart", opt.sessionFile, n)
		}
	}
	if opt.stateURL != "" {
		if opt.sessionFile != "" {
			return nil, errors.New("-state-url and -session-file are mutually exclusive: the state plane owns the sessions")
		}
		if opt.replica == "" {
			return nil, errors.New("-state-url needs -replica: replicas sharing a store must mint distinct tokens")
		}
		f.Tukey.SetSessionStore(tukeystate.NewRemoteSessionStore(opt.stateURL, nil))
		f.Tukey.SetTokenPrefix(opt.replica + "-")
		log.Printf("replica %s: sessions and admission served by state plane at %s", opt.replica, opt.stateURL)
	}
	siteClient := &http.Client{Timeout: cloudapi.DefaultTimeout}
	if opt.siteTimeout > 0 {
		siteClient = &http.Client{Timeout: opt.siteTimeout}
		f.Tukey.SetHTTPTimeout(opt.siteTimeout)
	}

	s := &server{fed: f, close: func() {}}
	// apis reach each cloud's operator plane for quota administration.
	apis := make(map[string]cloudapi.CloudAPI)
	// pollAPIs is what billing/monitoring watch when any cloud is remote.
	var pollAPIs []cloudapi.CloudAPI
	// syncTargets are the followed clock planes the coordinator pushes to.
	var syncTargets []cloudapi.ClockSyncTarget
	// dataSites are the dataset planes the replication coordinator
	// places replicas across; OSDC-Root always anchors the master copies.
	dataSites := []datastore.API{f.Stores[core.ClusterRoot]}
	// cloudServers are the in-process per-cloud HTTP servers, kept so the
	// console can read their usage-cache counters directly.
	cloudServers := map[string]*cloudapi.Server{}
	// usageRemotes are the delta-capable usage clients whose cache health
	// the telemetry plane reports.
	var usageRemotes []*cloudapi.Remote
	// members are every attached cloud's /metrics endpoint — what the
	// cross-site collector scrapes.
	var members []telemetry.Member

	external := map[string]string{}
	for _, p := range opt.sites {
		external[p.name] = p.url
	}
	inProcess := make([]string, 0, 2)
	for _, name := range []string{core.ClusterAdler, core.ClusterSullivan} {
		if _, ok := external[name]; !ok {
			inProcess = append(inProcess, name)
		}
	}

	clockMode := cloudapi.ClockFreeRun
	if opt.clockSync > 0 {
		clockMode = cloudapi.ClockFollow
	}

	if opt.remoteClouds {
		// Every in-process cloud becomes a site: own engine (offset seeds
		// keep the worlds distinct), own clock source, own listener. The
		// console-side services are rewired onto Remote transports — after
		// this, a cloud is an address. In follow mode the site clock only
		// moves when the coordinator pushes (speedup caps nothing: 0 =
		// jump to each target).
		speedup := opt.speedup
		if clockMode == cloudapi.ClockFollow {
			speedup = 0
		}
		sites, err := f.StartRemoteSitesWithOptions(core.RemoteSiteOptions{
			Seed: opt.seed, Scale: 4, Speedup: speedup,
			Clock: clockMode, Client: siteClient, Clouds: inProcess,
			Datasets: true, OperatorSecret: opt.operatorSecret,
			Shards: opt.shards,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.sites = sites
		for _, site := range sites {
			remote := site.RemoteWithClient(siteClient)
			apis[site.Cloud.Name] = remote
			pollAPIs = append(pollAPIs, remote)
			cloudServers[site.Cloud.Name] = site.Server()
			usageRemotes = append(usageRemotes, remote)
			members = append(members, telemetry.Member{Name: site.Cloud.Name, URL: site.URL})
			if clockMode == cloudapi.ClockFollow {
				syncTargets = append(syncTargets, remote)
			}
			dataSites = append(dataSites, site.DatasetsRemote(siteClient))
			log.Printf("cloud site %s (%s) on %s, private engine (%s clock)",
				site.Cloud.Name, site.Cloud.Stack, site.URL, site.Mode)
		}
	} else {
		for _, name := range inProcess {
			c := f.Adler
			if name == core.ClusterSullivan {
				c = f.Sullivan
			}
			srv := cloudapi.NewServer(c)
			// The shared federation engine is readable on each cloud's
			// clock plane even in the single-process topology, and the
			// cloud's dataset store is served on its datasets plane.
			srv.Clock = cloudapi.EngineClock{E: f.Engine}
			srv.Datasets = f.Stores[name]
			srv.OperatorSecret = opt.operatorSecret
			dataSites = append(dataSites, f.Stores[name])
			ln, url, err := serve(srv)
			if err != nil {
				s.Close()
				return nil, err
			}
			prev := s.close
			s.close = func() { prev(); ln.Close() }
			cloudServers[name] = srv
			members = append(members, telemetry.Member{Name: name, URL: url})
			f.Tukey.AttachCloud(tukey.CloudConfig{Name: c.Name, Stack: c.Stack, Endpoint: url})
			api := f.AdlerAPI
			if name == core.ClusterSullivan {
				api = f.SullivanAPI
			}
			apis[name] = api
			pollAPIs = append(pollAPIs, api)
			log.Printf("cloud %s (%s) on %s, shared engine", c.Name, c.Stack, url)
		}
	}

	// Externally running cloud-sites: probe each URL's discovery document,
	// attach the Remote to the console, and fold it into polling and —
	// when it follows — clock sync.
	for _, p := range opt.sites {
		remote, err := cloudapi.ProbeRemote(p.url, siteClient)
		if err != nil {
			s.Close()
			return nil, err
		}
		if remote.Name() != p.name {
			s.Close()
			return nil, fmt.Errorf("site %s reports cloud %q, not %q", p.url, remote.Name(), p.name)
		}
		remote.SetOperatorSecret(opt.operatorSecret)
		f.Tukey.AttachCloud(tukey.CloudConfig{API: remote})
		if ds, err := datastore.ProbeRemote(p.url, siteClient); err == nil {
			ds.SetOperatorSecret(opt.operatorSecret)
			dataSites = append(dataSites, ds)
		} else if opt.replicationFactor > 0 {
			// With replication requested, silently skipping a site's data
			// plane would under-place every dataset; fail loudly instead.
			s.Close()
			return nil, fmt.Errorf("site %s at %s: datasets plane unreadable with -replication-factor on: %w", p.name, p.url, err)
		}
		apis[p.name] = remote
		pollAPIs = append(pollAPIs, remote)
		usageRemotes = append(usageRemotes, remote)
		members = append(members, telemetry.Member{Name: p.name, URL: p.url})
		mode := "unknown"
		st, clockErr := remote.Clock()
		if clockErr == nil {
			mode = st.Mode
			if st.Mode == cloudapi.ClockFollow.String() && opt.clockSync > 0 {
				syncTargets = append(syncTargets, remote)
			}
		} else if opt.clockSync > 0 {
			// With clock sync requested, silently excluding a site from
			// the coordinator would freeze its virtual clock forever (a
			// follower with no pushes holds still). Fail loudly instead:
			// the operator retries once the site answers its clock plane.
			s.Close()
			return nil, fmt.Errorf("site %s at %s: clock plane unreadable with -clock-sync on: %w", p.name, p.url, clockErr)
		}
		log.Printf("external cloud site %s (%s) attached at %s (%s clock)", p.name, remote.Stack(), p.url, mode)
	}

	// Rewire billing/monitoring when any cloud sits behind a transport the
	// default federation wiring does not watch. In pure -remote-clouds
	// mode StartRemoteSitesWithOptions already did this rewire; only
	// external sites extend the poll set beyond it.
	if len(opt.sites) > 0 {
		f.UseCloudAPIs(pollAPIs...)
	}

	f.EnrollResearcher("demo", "demo-pw")
	for _, api := range apis {
		if err := api.SetQuota("demo", iaas.Quota{MaxInstances: 10, MaxCores: 64}); err != nil {
			s.Close()
			return nil, err
		}
	}

	// The data plane: keep every catalog dataset at the target factor
	// across the attached site stores, and expose placement + staging on
	// the console.
	replicationInterval := opt.replicationInterval
	if replicationInterval <= 0 {
		replicationInterval = 200 * time.Millisecond
	}
	if opt.replicationFactor > 0 {
		// Built here because the console serves its placement; its wall
		// loop starts below, once the driver has shared the engine.
		f.StartReplication(core.ReplicationOptions{
			Factor: opt.replicationFactor, Seed: opt.seed, Sites: dataSites,
		})
		log.Printf("replication coordinator: factor %d over %d site stores, round every %v",
			opt.replicationFactor, len(dataSites), replicationInterval)
	}

	s.console = &tukey.Console{MW: f.Tukey, Biller: f.Biller, Catalog: f.Catalog, UsageMon: f.UsageMon,
		Replication: f.Replication}
	switch {
	case opt.stateURL != "":
		if opt.rateLimit > 0 {
			return nil, errors.New("-rate-limit is configured on tukey-state, not the replica, when -state-url is set")
		}
		s.console.Limiter = tukeystate.NewRemoteLimiter(opt.stateURL, nil)
	case opt.rateLimit > 0:
		burst := opt.rateBurst
		if burst <= 0 {
			burst = 2 * opt.rateLimit
		}
		s.console.Limiter = tukey.NewRateLimiter(opt.rateLimit, burst)
	}

	// --- telemetry plane: one registry fed by every in-process source,
	// the collector folding in member-labelled remote series, the streamer
	// framing deltas on the virtual clock for /console/stream ---
	reg := telemetry.NewRegistry()
	s.metrics = reg
	f.RegisterTelemetry(reg)
	s.console.RegisterMetrics(reg)
	cloudapi.RegisterUsageDeltaClients(reg, usageRemotes...)
	s.console.UsageCacheHits = func() map[string]int64 {
		out := make(map[string]int64, len(cloudServers))
		for name, srv := range cloudServers {
			out[name] = srv.UsageCacheHits.Load()
		}
		return out
	}
	if opt.telemetryScrape > 0 && len(members) > 0 {
		s.collector = telemetry.NewCollector(opt.operatorSecret, siteClient, members...)
		s.collector.RegisterMetrics(reg)
		s.collector.Start(opt.telemetryScrape)
		log.Printf("telemetry collector: scraping %d member(s) every %v", len(members), opt.telemetryScrape)
	}
	col := s.collector
	s.stream = telemetry.NewStreamer(func() map[string]float64 {
		snap := reg.Snapshot()
		if col != nil {
			for k, v := range col.Snapshot() {
				snap[k] = v
			}
		}
		return snap
	})
	streamPeriod := opt.streamPeriod
	if streamPeriod <= 0 {
		streamPeriod = 1
	}
	s.stream.Start(f.Engine, sim.Duration(streamPeriod))
	s.console.Stream = s.stream

	mux := http.NewServeMux()
	mux.Handle("/", s.console)
	// GET /healthz is what tukey-lb probes: 200 means this replica is
	// taking traffic.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok", "replica": opt.replica})
	})
	// GET /clock is the coordinator's readable face: cloud-site processes
	// started with -clock-follow <this server's URL> poll it. Same wire
	// form as every site's /cloudapi/clock (cloudapi.ClockStatus).
	consoleClock := cloudapi.EngineClock{E: f.Engine}
	mux.HandleFunc("/clock", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(consoleClock.ClockStatus())
	})
	// /debug/pprof/ rides the same operator gate as the cloud servers:
	// absent without -operator-secret, 403 without the matching
	// X-OSDC-Operator header.
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		cloudapi.ServePprof(opt.operatorSecret, w, r)
	})
	// GET /metrics rides the same operator gate: the console's own plane
	// plus everything the collector folded in from member clouds.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeMetrics(opt.operatorSecret, reg, w, r)
	})
	s.handler = mux

	if opt.speedup > 0 {
		// A sharded kernel must advance every shard in lockstep — driving
		// only the anchor would strand instances homed on other shards with
		// frozen boot and stop timers.
		if f.Set.K() > 1 {
			s.driver = sim.StartShardDriver(f.Set, opt.speedup, 5*time.Millisecond)
		} else {
			s.driver = sim.StartDriver(f.Engine, opt.speedup, 5*time.Millisecond)
		}
	}
	if f.Replication != nil {
		// The round loop reads the engine clock from its own goroutine, so
		// it starts only after the driver's Share (sim.Engine.Share must
		// precede every goroutine that reaches the engine).
		f.Replication.Start(replicationInterval)
	}
	if opt.clockSync > 0 && len(syncTargets) > 0 {
		f.StartClockSync(opt.clockSync, syncTargets...)
		s.console.ClockSync = f.ClockSync
	}
	return s, nil
}

// Close stops the coordinators, every clock source and every listener.
func (s *server) Close() {
	s.fed.StopReplication()
	s.fed.StopClockSync()
	if s.collector != nil {
		s.collector.Stop()
	}
	if s.stream != nil {
		s.stream.Close()
	}
	if s.driver != nil {
		s.driver.Stop()
	}
	for _, site := range s.sites {
		site.Close()
	}
	s.close()
}

func main() {
	addr := flag.String("addr", ":8080", "console listen address")
	speedup := flag.Float64("speedup", 60, "simulated seconds advanced per wall second (0 freezes the clock)")
	shards := flag.Int("shards", 1, "simulation kernel shards on the live path (1 = single engine, bit-identical to the historic behavior)")
	sessionTTL := flag.Duration("session-ttl", 12*time.Hour, "wall-clock session lifetime (0 = never expire)")
	sessionFile := flag.String("session-file", "", "persist sessions to this JSON file so restarts keep users logged in")
	remote := flag.Bool("remote-clouds", false, "run each cloud behind its own HTTP listener with its own engine and clock")
	siteTimeout := flag.Duration("site-timeout", cloudapi.DefaultTimeout, "per-request deadline for reaching cloud sites")
	clockSync := flag.Duration("clock-sync", 0, "sync followed site clocks to the console engine this often (0 = free-run)")
	rateLimit := flag.Float64("rate-limit", 0, "per-user console requests/second (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "per-user burst size (0 = 2× -rate-limit)")
	replicationFactor := flag.Int("replication-factor", 0, "keep every catalog dataset at N site replicas (0 = no coordinator)")
	replicationInterval := flag.Duration("replication-interval", 200*time.Millisecond, "replication coordinator round period")
	operatorSecret := flag.String("operator-secret", "", "shared secret gating operator-plane writes on cloud servers")
	stateURL := flag.String("state-url", "", "tukey-state service URL; makes this a stateless replica (requires -replica)")
	replica := flag.String("replica", "", "replica name; prefixes session tokens so replicas sharing a state plane never collide")
	telemetryScrape := flag.Duration("telemetry-scrape", 0, "scrape every attached cloud's /metrics this often into the console plane (0 = off)")
	streamPeriod := flag.Float64("stream-period", 1, "/console/stream frame cadence in simulated seconds")
	var sites siteList
	flag.Var(&sites, "site", "attach an externally running cloud-site as name=url (repeatable)")
	flag.Parse()

	s, err := newServer(options{
		seed: 1, shards: *shards, speedup: *speedup, sessionTTL: *sessionTTL, sessionFile: *sessionFile,
		remoteClouds: *remote, sites: sites, siteTimeout: *siteTimeout, clockSync: *clockSync,
		rateLimit: *rateLimit, rateBurst: *rateBurst,
		replicationFactor: *replicationFactor, replicationInterval: *replicationInterval,
		operatorSecret: *operatorSecret, stateURL: *stateURL, replica: *replica,
		telemetryScrape: *telemetryScrape, streamPeriod: *streamPeriod,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	topology := "single-process"
	if *remote {
		topology = "per-site remote"
	}
	if len(sites) > 0 {
		topology += fmt.Sprintf(" + %d external site(s)", len(sites))
	}
	log.Printf("Tukey console on %s (%s topology) — login with demo/demo-pw (shibboleth); clock at %gx",
		*addr, topology, *speedup)
	log.Fatal(http.ListenAndServe(*addr, s.handler))
}

// serve mounts a handler on an ephemeral loopback port and returns the
// listener (for shutdown) and its URL.
func serve(h http.Handler) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() {
		if err := http.Serve(ln, h); err != nil {
			log.Printf("backend server: %v", err)
		}
	}()
	return ln, fmt.Sprintf("http://%s", ln.Addr()), nil
}
