// Command cloud-site runs ONE federation cloud as its own OS process: a
// private sim.Engine, the cloud built on it (OSDC-Adler's OpenStack dialect
// or OSDC-Sullivan's Eucalyptus dialect), and a cloudapi.Server exposing
// the native tenant API, the JSON operator plane, and the clock plane on
// one listener. This is the paper's actual deployment shape taken all the
// way: with tukey-server attaching the site by URL (-site name=url), the
// federation becomes a set of real processes speaking only HTTP.
//
// Clock modes:
//
//   - default (free-run): the site's engine tracks wall time at -speedup
//     simulated seconds per wall second, unsynchronized — fine alone, but
//     engines drift apart across a federation;
//   - -clock-follow push: the engine advances only toward targets POSTed
//     to /cloudapi/clock — how a console-side clock coordinator keeps this
//     site within a bounded skew of the console engine;
//   - -clock-follow <coordinator-url>: same follower, but this process
//     also polls the coordinator's clock endpoint every -clock-interval
//     and feeds the answer to the follower — for sites the coordinator
//     cannot reach inbound. A bare base URL polls <url>/clock
//     (tukey-server's endpoint); any URL with a path is polled verbatim,
//     so a peer site's /cloudapi/clock works too.
//
// Data plane: every cloud-site serves its dataset store on
// /cloudapi/datasets — a per-site inventory backed by a volume sized per
// Table 2 — so a console-side replication coordinator can place dataset
// replicas next to this site's compute over the wire.
//
// Auth: -operator-secret gates every mutating operator-plane request
// (clock targets, quotas, dataset replicas) behind a shared-secret header;
// the attaching tukey-server passes the same value. The same secret gates
// GET /metrics — the site's kernel and usage-cache series in Prometheus
// text form, what a console-side telemetry collector scrapes.
//
// Usage:
//
//	cloud-site -cloud OSDC-Adler [-addr 127.0.0.1:0] [-seed 1] [-scale 4]
//	           [-speedup 60] [-clock-follow push|<url>] [-clock-interval 50ms]
//	           [-operator-secret S]
//
// The line "cloud-site <name> (<stack>) listening on <url>" is printed to
// stdout once the listener is up, so a spawning process can scrape the
// ephemeral address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/sim"
)

// options bundle the site knobs so tests can drive newCloudSite directly.
type options struct {
	cloud          string
	addr           string
	seed           uint64
	scale          int
	speedup        float64
	clockFollow    string        // "" = free-run, "push" = follow, else coordinator URL
	clockTick      time.Duration // follower tick / coordinator poll period
	operatorSecret string        // gates operator-plane writes when set
	shards         int           // kernel shard count (<= 1 = single engine)
}

// cloudSite is the assembled process: one cloudapi.Site (engine, clock
// source, listener) plus the optional coordinator poller.
type cloudSite struct {
	engine   *sim.Engine
	site     *cloudapi.Site
	url      string
	name     string
	stack    string
	follower *sim.Follower
	stopPoll chan struct{}
}

// newCloudSite builds the world and starts serving. It does not block.
// The site is exactly what core.StartSite builds for the console's per-site
// topologies — this binary only adds the process boundary and the
// pull-mode coordinator poller.
func newCloudSite(opt options) (*cloudSite, error) {
	if opt.scale < 1 {
		opt.scale = 4
	}
	if opt.clockTick <= 0 {
		opt.clockTick = 50 * time.Millisecond
	}
	// The site serves its dataset store on /cloudapi/datasets so a
	// console-side replication coordinator can place replicas here over
	// the wire.
	siteOpts := cloudapi.SiteOptions{
		Clock: cloudapi.ClockFreeRun, Speedup: opt.speedup, Addr: opt.addr,
		OperatorSecret: opt.operatorSecret,
	}
	if opt.clockFollow != "" {
		// Follow mode: speedup 0 = jump to each published target; the
		// 2 ms default tick stays well under any sane sync interval.
		siteOpts.Clock, siteOpts.Speedup = cloudapi.ClockFollow, 0
	}
	site, err := core.StartSite(opt.cloud, opt.seed, opt.scale, opt.shards, siteOpts)
	if err != nil {
		return nil, fmt.Errorf("cloud-site: %w", err)
	}
	s := &cloudSite{
		engine: site.Engine, site: site, url: site.URL,
		name: site.Cloud.Name, stack: site.Cloud.Stack, follower: site.Follower(),
	}
	if opt.clockFollow != "" && opt.clockFollow != "push" {
		poll, err := clockPollURL(opt.clockFollow)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.stopPoll = make(chan struct{})
		go s.pollCoordinator(poll, opt.clockTick)
	}
	return s, nil
}

// clockPollURL resolves the -clock-follow value to the URL polled for the
// coordinator's time: a bare base URL gets /clock appended.
func clockPollURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("cloud-site: -clock-follow wants 'push' or a coordinator URL, got %q", raw)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/clock"
	}
	return u.String(), nil
}

// pollCoordinator pulls the coordinator's virtual time every tick and
// feeds it to the follower. Errors are logged and retried: a site that
// misses syncs holds its clock still rather than drifting.
func (s *cloudSite) pollCoordinator(pollURL string, every time.Duration) {
	client := &http.Client{Timeout: cloudapi.DefaultTimeout}
	tick := time.NewTicker(every)
	defer tick.Stop()
	fails := 0
	for {
		select {
		case <-s.stopPoll:
			return
		case <-tick.C:
			resp, err := client.Get(pollURL)
			if err != nil {
				if fails++; fails%20 == 1 {
					log.Printf("clock poll %s: %v", pollURL, err)
				}
				continue
			}
			var body cloudapi.ClockStatus
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				if fails++; fails%20 == 1 {
					log.Printf("clock poll %s: status %d, err %v", pollURL, resp.StatusCode, err)
				}
				continue
			}
			fails = 0
			s.follower.SetTarget(sim.Time(body.Now))
		}
	}
}

// Close stops the poller, then the site's clock source and listener.
func (s *cloudSite) Close() {
	if s.stopPoll != nil {
		close(s.stopPoll)
	}
	s.site.Close()
}

func main() {
	cloud := flag.String("cloud", core.ClusterAdler,
		fmt.Sprintf("which cloud this site hosts (%s or %s)", core.ClusterAdler, core.ClusterSullivan))
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 picks an ephemeral port)")
	seed := flag.Uint64("seed", 1, "simulation seed for this site's private engine")
	scale := flag.Int("scale", 4, "server-count divisor (1 = paper scale)")
	speedup := flag.Float64("speedup", 60, "free-run simulated seconds per wall second (0 freezes; ignored when following)")
	clockFollow := flag.String("clock-follow", "",
		"clock mode: empty free-runs; 'push' follows POSTed targets; a coordinator URL also polls it for time")
	clockTick := flag.Duration("clock-interval", 50*time.Millisecond, "coordinator poll period when -clock-follow is a URL")
	operatorSecret := flag.String("operator-secret", "", "shared secret gating operator-plane writes (clock, quota, dataset replicas)")
	shards := flag.Int("shards", 1, "kernel shard count: K engines advanced in lockstep, per-instance timers spread by entity hash")
	flag.Parse()

	s, err := newCloudSite(options{
		cloud: *cloud, addr: *addr, seed: *seed, scale: *scale,
		speedup: *speedup, clockFollow: *clockFollow, clockTick: *clockTick,
		operatorSecret: *operatorSecret, shards: *shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	// The stdout line is the spawn contract: parents scrape the ephemeral
	// address from it.
	fmt.Printf("cloud-site %s (%s) listening on %s\n", s.name, s.stack, s.url)
	mode := "free-run"
	if s.follower != nil {
		mode = "follow"
	}
	log.Printf("clock mode %s; operator plane at %s/cloudapi/, native %s dialect at /", mode, s.url, s.stack)
	select {} // serve until killed
}
