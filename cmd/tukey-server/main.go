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
	"net/http"
	"strings"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/tukey"
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

// server is the assembled service: the running federation, its console
// handler, and the replication, telemetry and stream loops wired on top.
type server struct {
	dep       *core.Deployment
	fed       *core.Federation
	console   *tukey.Console
	handler   http.Handler     // console plus the /clock coordinator endpoint
	driver    *sim.Driver      // console-side clock; nil when frozen
	sites     []*cloudapi.Site // per-cloud worlds in -remote-clouds mode
	metrics   *telemetry.Registry
	collector *telemetry.Collector // cross-site scraper; nil without -telemetry-scrape
	stream    *telemetry.Streamer
}

// newServer builds the federation in the requested topology, enrolls the
// demo researcher, and wires sessions, the data plane and the telemetry
// plane onto the running console.
func newServer(opt options) (*server, error) {
	if opt.stateURL != "" && opt.sessionFile != "" {
		return nil, errors.New("-state-url and -session-file are mutually exclusive: the state plane owns the sessions")
	}
	// -remote-clouds makes every in-process cloud its own site; with
	// -clock-sync those sites follow the console's coordinator.
	topology := core.SingleProcess
	if opt.remoteClouds {
		topology = core.PerSite
		if opt.clockSync > 0 {
			topology = core.FollowedClocks
		}
	}
	sites := make([]core.ExternalSite, len(opt.sites))
	for i, p := range opt.sites {
		sites[i] = core.ExternalSite{Name: p.name, URL: p.url}
	}
	d, err := core.StartConsole(core.ConsoleConfig{
		Seed: opt.seed, Scale: 4, Shards: opt.shards, Topology: topology, Sites: sites,
		Speedup: opt.speedup, SyncInterval: opt.clockSync, SiteTimeout: opt.siteTimeout,
		StateURL: opt.stateURL, Replica: opt.replica,
		RateLimit: opt.rateLimit, RateBurst: opt.rateBurst, OperatorSecret: opt.operatorSecret,
	})
	if err != nil {
		return nil, err
	}
	f := d.Fed
	s := &server{dep: d, fed: f, console: d.Console, driver: d.Driver, sites: d.Sites}
	for _, m := range d.Members {
		log.Printf("cloud %s attached at %s", m.Name, m.URL)
	}

	if opt.sessionTTL > 0 {
		f.Tukey.SetSessionTTL(opt.sessionTTL)
	}
	if opt.sessionFile != "" {
		store, err := tukey.NewFileSessionStore(opt.sessionFile)
		if err != nil {
			s.Close()
			return nil, err
		}
		f.Tukey.SetSessionStore(store)
		if n := store.Count(); n > 0 {
			log.Printf("session store %s: %d sessions survive the restart", opt.sessionFile, n)
		}
	}
	if opt.stateURL != "" {
		log.Printf("replica %s: sessions and admission served by state plane at %s", opt.replica, opt.stateURL)
	}
	if err := d.Enroll("demo", "demo-pw", iaas.Quota{MaxInstances: 10, MaxCores: 64}); err != nil {
		s.Close()
		return nil, err
	}

	// The data plane: keep every catalog dataset at the target factor
	// across the attached site stores, and expose placement + staging on
	// the console. The round loop starts at once: StartConsole's driver has
	// already shared the engine it reads.
	if opt.replicationFactor > 0 {
		placed := map[string]bool{}
		for _, ds := range d.DataSites {
			placed[ds.Name()] = true
		}
		for _, p := range opt.sites {
			if !placed[p.name] {
				// Silently skipping a site's data plane would under-place
				// every dataset; fail loudly instead.
				s.Close()
				return nil, fmt.Errorf("site %s at %s: datasets plane unreadable with -replication-factor on", p.name, p.url)
			}
		}
		interval := opt.replicationInterval
		if interval <= 0 {
			interval = 200 * time.Millisecond
		}
		s.console.Replication = f.StartReplication(core.ReplicationOptions{
			Factor: opt.replicationFactor, Seed: opt.seed, Sites: d.DataSites, Interval: interval,
		})
		log.Printf("replication coordinator: factor %d over %d site stores, round every %v",
			opt.replicationFactor, len(d.DataSites), interval)
	}

	// --- telemetry plane: one registry fed by every in-process source,
	// the collector folding in member-labelled remote series, the streamer
	// framing deltas on the virtual clock for /console/stream ---
	reg := telemetry.NewRegistry()
	s.metrics = reg
	f.RegisterTelemetry(reg)
	s.console.RegisterMetrics(reg)
	if opt.telemetryScrape > 0 && len(d.Members) > 0 {
		s.collector = telemetry.NewCollector(opt.operatorSecret, d.SiteClient, d.Members...)
		s.collector.RegisterMetrics(reg)
		s.collector.Start(opt.telemetryScrape)
		log.Printf("telemetry collector: scraping %d member(s) every %v", len(d.Members), opt.telemetryScrape)
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
	return s, nil
}

// Close stops the replication, telemetry and stream loops, then the
// federation: coordinator, clocks, sites and listeners.
func (s *server) Close() {
	s.fed.StopReplication()
	if s.collector != nil {
		s.collector.Stop()
	}
	if s.stream != nil {
		s.stream.Close()
	}
	s.dep.Close()
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
