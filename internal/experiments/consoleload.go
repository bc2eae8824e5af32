package experiments

// The console-load scenario is the "many concurrent users" axis the paper
// only implies: §5.1's Tukey console in front of the full federation,
// hammered by N simulated researchers at once while the wall-clock driver
// keeps the simulation clock — billing pollers, monitoring sweeps, VM boot
// timers — running underneath the HTTP traffic. It doubles as the
// integration stress for the service-layer locking: run it under -race and
// every console route races against every poller.
//
// The scenario is parametric (users, iters, think-ms, shards, bg-instances,
// topology). The topology param picks the federation shape core.StartConsole
// builds — 0 single-process (both clouds on the federation engine behind
// per-cloud servers), 1 per-site (every cloud on its own engine, driver and
// listener, reached only through cloudapi.Remote), 2 per-site with followed
// clocks (a coordinator pushes the console engine's time to every site).
// Same workload, different deployment: the deterministic request
// accounting must not move across them.
//
// console-knee sweeps the user axis (128/1024/4096) across replica counts
// with a read-only request mix and reports where console p95 latency knees.
//
// Metric convention: keys with the "live-" prefix are measured wall-clock
// quantities (latency percentiles, requests/sec, metered usage) and are
// NOT deterministic functions of the seed; everything else (request
// counts, error counts, catalog hits) is. The osdc-bench golden test
// normalizes live- metrics to zero before comparing.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/tukey"
)

const (
	consoleLoadDesc = "Tukey console under N concurrent researchers with the sim clock live (requests/sec, p50/p95/p99); topology 0 = single-process, 1 = per-site, 2 = per-site with followed clocks"
	consoleKneeDesc = "console p95 latency across (users × replicas): stateless console replicas over a shared state plane behind tukey-lb, locating the knee per replica count (params: users, replicas, iters; 0 = sweep 128/1024/4096 × 1/2/4)"
)

// consoleLoadSpeedup is simulated seconds per wall second: fast enough
// that minute-granularity billing polls land many times within a
// sub-second run.
const consoleLoadSpeedup = 60_000

// consoleGridSpeedup replaces consoleLoadSpeedup in grid mode: with 10⁵
// background instances each heartbeating every 30 simulated minutes,
// 60 000× would ask the kernel for ~3×10⁶ events per wall second; 600×
// keeps the live event rate in the 10⁴/s range while still packing 31
// simulated minutes of billing into a few wall seconds.
const consoleGridSpeedup = 600

// gridUser owns the grid-mode background population.
const gridUser = "grid"

// ConsoleLoadOpts shape the console-load workload; the scenario registry
// exposes them as parameters.
type ConsoleLoadOpts struct {
	Users int           // concurrent researchers
	Iters int           // op loops per researcher
	Think time.Duration // wall-clock pause between op loops
	// Topology is the federation shape. Only clocks and transports differ
	// across topologies; the deterministic accounting must not.
	Topology core.Topology
	// RateLimit, when > 0, puts the per-user token bucket in front of the
	// console (requests/second; RateBurst 0 means 2× RateLimit). 429s are
	// counted separately from errors, and the throttle makes
	// status-dependent metrics wall-clock-dependent — the rate-limit-sweep
	// scenario maps them to live- keys.
	RateLimit float64
	RateBurst float64
	// Shards is the live kernel's shard count (<= 1 = one engine). K=1
	// reproduces the historic single-engine runs bit for bit; K>1 homes
	// every instance's boot/heartbeat/stop timers on the shard its ID
	// hashes to and drives all shards in lockstep.
	Shards int
	// BgInstances > 0 switches on grid mode: that many background
	// m1.small VMs are parked on Adler (dense synthetic hosts, a usage
	// heartbeat armed on each) before the console storm starts, so
	// latencies are measured against a kernel busy with a large live
	// entity population. Grid mode runs at consoleGridSpeedup and only in
	// the single-process topology.
	BgInstances int
}

// consoleLoadOptsFrom maps scenario params onto opts.
func consoleLoadOptsFrom(params map[string]float64) ConsoleLoadOpts {
	return ConsoleLoadOpts{
		Users:       int(params["users"]),
		Iters:       int(params["iters"]),
		Think:       time.Duration(params["think-ms"]) * time.Millisecond,
		Topology:    core.Topology(params["topology"]),
		Shards:      int(params["shards"]),
		BgInstances: int(params["bg-instances"]),
	}
}

// consoleLoadConfig is the federation console-load runs against.
func consoleLoadConfig(seed uint64, opts ConsoleLoadOpts) core.ConsoleConfig {
	speedup := float64(consoleLoadSpeedup)
	if opts.BgInstances > 0 {
		speedup = consoleGridSpeedup
	}
	return core.ConsoleConfig{
		Seed: seed, Scale: 8, Shards: opts.Shards, Topology: opts.Topology,
		Speedup: speedup, GridInstances: opts.BgInstances,
		RateLimit: opts.RateLimit, RateBurst: opts.RateBurst, Serve: true,
	}
}

// enroll provisions n researchers (load0000, load0001, …) with quota q on
// every cloud, returning their usernames. Each one's password is "pw-"
// plus the name, which consoleClient.login presents.
func enroll(d *core.Deployment, n int, q iaas.Quota) ([]string, error) {
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("load%04d", i)
		if err := d.Enroll(users[i], "pw-"+users[i], q); err != nil {
			return nil, err
		}
	}
	return users, nil
}

// requestRecord is the outcome of one console request.
type requestRecord struct {
	user, method, path string
	want, got          int   // got is 0 when the transport failed
	err                error // transport error
	latency            time.Duration
}

// throttled reports a 429 from the admission-control bucket: counted
// apart from errors.
func (r requestRecord) throttled() bool {
	return r.got == http.StatusTooManyRequests && r.want != http.StatusTooManyRequests
}

// failed reports a transport error or an unexpected, unthrottled status.
func (r requestRecord) failed() bool {
	return r.err != nil || (r.got != r.want && !r.throttled())
}

func (r requestRecord) String() string {
	return fmt.Sprintf("%s %s %s: want %d, got %d, transport error %v, after %v",
		r.user, r.method, r.path, r.want, r.got, r.err, r.latency.Round(time.Microsecond))
}

// consoleClient is one researcher's view of the console: every request
// goes through the deployment's pooled client and leaves a record.
type consoleClient struct {
	base, user, tok string
	client          *http.Client
	records         []requestRecord
}

func newConsoleClients(d *core.Deployment, users []string) []*consoleClient {
	out := make([]*consoleClient, len(users))
	for i, u := range users {
		out[i] = &consoleClient{base: d.URL, user: u, client: d.Client}
	}
	return out
}

func (c *consoleClient) do(method, path, body string, wantStatus int) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.tok != "" {
		req.Header.Set("X-Tukey-Session", c.tok)
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	rec := requestRecord{user: c.user, method: method, path: path, want: wantStatus,
		err: err, latency: time.Since(start)}
	if resp != nil {
		rec.got = resp.StatusCode
	}
	c.records = append(c.records, rec)
	return resp, err
}

// err returns this client's first failed request, if any, as an error.
func (c *consoleClient) err() error {
	for _, r := range c.records {
		if r.failed() {
			return fmt.Errorf("console request failed: %v", r)
		}
	}
	return nil
}

// drain reads a response body to the end and closes it, so the connection
// goes back to the pool. The ignored error lets it take do's results
// directly: the request is already on record.
func drain(resp *http.Response, _ ...error) {
	if resp != nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// login authenticates the researcher and keeps the token.
func (c *consoleClient) login() error {
	resp, err := c.do("POST", "/login", fmt.Sprintf(
		`{"provider":"shibboleth","username":%q,"secret":%q}`, c.user, "pw-"+c.user), http.StatusOK)
	if err != nil {
		return err
	}
	var login struct {
		Token string `json:"token"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&login)
	drain(resp)
	c.tok = login.Token
	return nil
}

// launch parks an m1.small VM named name on cloud, returning its ID (""
// when the launch failed).
func (c *consoleClient) launch(cloud, name string) string {
	resp, _ := c.do("POST", "/console/launch", fmt.Sprintf(
		`{"cloud":%q,"name":%q,"flavor":"m1.small"}`, cloud, name), http.StatusAccepted)
	var out struct {
		Server tukey.TaggedServer `json:"server"`
	}
	if resp != nil {
		_ = json.NewDecoder(resp.Body).Decode(&out)
	}
	drain(resp)
	return out.Server.ID
}

// tally is what a storm's records add up to.
type tally struct {
	reqs, errs, throttled, launched int
	latencies                       []time.Duration // sorted
	failures                        []requestRecord
}

func tallyRecords(clients []*consoleClient) tally {
	var t tally
	for _, c := range clients {
		for _, r := range c.records {
			t.reqs++
			t.latencies = append(t.latencies, r.latency)
			switch {
			case r.throttled():
				t.throttled++
			case r.failed():
				t.errs++
				t.failures = append(t.failures, r)
			case r.path == "/console/launch":
				t.launched++
			}
		}
	}
	sort.Slice(t.latencies, func(a, b int) bool { return t.latencies[a] < t.latencies[b] })
	return t
}

// ConsoleLoad runs opts.Users concurrent researchers through login →
// launch → list → usage → datasets → status → terminate loops against the
// live federation in the chosen topology. It reports throughput and
// latency percentiles (live- metrics) alongside deterministic request
// accounting; the table lists any failed request.
func ConsoleLoad(seed uint64, opts ConsoleLoadOpts) (scenario.Result, error) {
	if opts.Users <= 0 {
		opts.Users = 8
	}
	if opts.Iters <= 0 {
		opts.Iters = 5
	}
	cfg := consoleLoadConfig(seed, opts)
	d, err := core.StartConsole(cfg)
	if err != nil {
		return scenario.Result{}, fmt.Errorf("console-load: %w", err)
	}
	defer d.Close()
	users, err := enroll(d, opts.Users, iaas.Quota{MaxInstances: 10, MaxCores: 16})
	if err != nil {
		return scenario.Result{}, err
	}
	f := d.Fed

	// Grid mode: park the background population on Adler before the storm.
	// Launches go straight through the iaas control plane — the point is a
	// busy kernel under the console, not 10⁵ HTTP round trips — and the
	// clock is already live, so boots and heartbeats start firing on their
	// owning shards while the loop is still running.
	bgShardsPopulated := 0
	if opts.BgInstances > 0 {
		f.Adler.SetQuota(gridUser, iaas.Quota{
			MaxInstances: opts.BgInstances + 1, MaxCores: opts.BgInstances + 1})
		for i := 0; i < opts.BgInstances; i++ {
			if _, err := f.Adler.Launch(gridUser, fmt.Sprintf("bg-%06d", i), "m1.small", ""); err != nil {
				return scenario.Result{}, fmt.Errorf("console-load: grid launch %d/%d: %w", i, opts.BgInstances, err)
			}
		}
		for _, n := range f.Adler.ShardPopulation() {
			if n > 0 {
				bgShardsPopulated++
			}
		}
	}

	wallStart := time.Now()
	simStart := f.Engine.Now()

	clients := newConsoleClients(d, users)
	var datasetHits int64
	var datasetOnce sync.Once

	// Phase 1 (concurrent): every researcher logs in and parks one
	// persistent VM on Adler. The barrier afterwards gives a sim timestamp
	// at which all persistent VMs are provably running, which makes
	// "usage becomes nonzero" deterministic rather than a timing accident.
	homes := make([]string, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.login(); err != nil {
				return
			}
			homes[i] = c.launch(core.ClusterAdler, c.user+"-home")
		}()
	}
	wg.Wait()
	vmsUpAt := f.Engine.Now()

	// Phase 2 (concurrent): the request storm. Each iteration launches a
	// scratch VM on Sullivan, walks every read route, terminates it, and
	// then thinks for opts.Think of wall time.
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < opts.Iters; it++ {
				id := c.launch(core.ClusterSullivan, fmt.Sprintf("%s-it%d", c.user, it))
				drain(c.do("GET", "/console/instances", "", http.StatusOK))
				drain(c.do("GET", "/console/usage", "", http.StatusOK))
				resp, _ := c.do("GET", "/console/datasets?q=genomics", "", http.StatusOK)
				if resp != nil && resp.StatusCode == http.StatusOK {
					var ds struct {
						Datasets []json.RawMessage `json:"datasets"`
					}
					_ = json.NewDecoder(resp.Body).Decode(&ds)
					datasetOnce.Do(func() { datasetHits = int64(len(ds.Datasets)) })
				}
				drain(resp)
				drain(c.do("GET", "/console/status", "", http.StatusOK))
				drain(c.do("POST", "/console/terminate", fmt.Sprintf(
					`{"cloud":%q,"id":%q}`, core.ClusterSullivan, id), http.StatusOK))

				if opts.Think > 0 {
					time.Sleep(opts.Think)
				}
			}
		}()
	}
	wg.Wait()

	// Phase 3: wait (wall-clock) until the persistent VMs have been up for
	// 31 simulated minutes on the billing engine, so the per-minute poll
	// has sampled them — then every researcher reads their usage and shuts
	// down. In the per-site topologies the clouds' clocks tick elsewhere;
	// billing samples whatever the sites report, so the console engine is
	// still the right clock to wait on.
	waitDeadline := time.Now().Add(10 * time.Second)
	for f.Engine.Now() < vmsUpAt+sim.Time(31*sim.Minute) {
		if time.Now().After(waitDeadline) {
			return scenario.Result{}, fmt.Errorf("console-load: clock driver advanced only to %v (from %v) in 10 s wall",
				f.Engine.Now(), vmsUpAt)
		}
		time.Sleep(time.Millisecond)
	}
	minCoreHours := -1.0
	for i, c := range clients {
		resp, err := c.do("GET", "/console/usage", "", http.StatusOK)
		if err != nil {
			return scenario.Result{}, err
		}
		var usage struct {
			CoreHours float64 `json:"core_hours"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&usage)
		drain(resp)
		if minCoreHours < 0 || usage.CoreHours < minCoreHours {
			minCoreHours = usage.CoreHours
		}
		drain(c.do("POST", "/console/terminate", fmt.Sprintf(
			`{"cloud":%q,"id":%q}`, core.ClusterAdler, homes[i]), http.StatusOK))
	}
	wallElapsed := time.Since(wallStart)
	d.StopClock()
	simElapsed := f.Engine.Now() - simStart

	t := tallyRecords(clients)
	usageNonzero := 0.0
	if minCoreHours > 0 {
		usageNonzero = 1
	}
	topology, remoteFlag := "single-process", 0.0
	if opts.Topology != core.SingleProcess {
		topology, remoteFlag = "per-site remote", 1
	}
	if opts.Topology == core.FollowedClocks {
		topology += " (followed clocks)"
	}
	if opts.Shards > 1 {
		topology += fmt.Sprintf(", %d-shard kernel", f.Set.K())
	}

	var b strings.Builder
	fmt.Fprintf(&b, "console load: %d researchers × (login + persistent VM + %d op loops), %s topology\n",
		opts.Users, opts.Iters, topology)
	fmt.Fprintln(&b, strings.Repeat("-", 72))
	fmt.Fprintf(&b, "requests         : %d total, %d errors, %d throttled, %d launches\n",
		t.reqs, t.errs, t.throttled, t.launched)
	fmt.Fprintf(&b, "throughput       : %.0f req/s over %v wall\n", float64(t.reqs)/wallElapsed.Seconds(), wallElapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "latency          : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
		quantileMs(t.latencies, 0.50), quantileMs(t.latencies, 0.95), quantileMs(t.latencies, 0.99))
	fmt.Fprintf(&b, "sim clock        : advanced %v while serving (speedup %.0f×)\n", sim.Time(simElapsed), cfg.Speedup)
	fmt.Fprintf(&b, "metered usage    : every researcher nonzero (min %.2f core-hours)\n", minCoreHours)
	if opts.BgInstances > 0 {
		fmt.Fprintf(&b, "grid background  : %d VMs across %d shard bucket(s), %d usage heartbeats, shard skew %.0f s at join\n",
			opts.BgInstances, bgShardsPopulated, f.Adler.Heartbeats(), float64(f.Set.Skew()))
	}

	metrics := map[string]float64{
		"users":              float64(opts.Users),
		"iterations":         float64(opts.Iters),
		"think-ms":           float64(opts.Think) / float64(time.Millisecond),
		"remote-topology":    remoteFlag,
		"requests-total":     float64(t.reqs),
		"request-errors":     float64(t.errs),
		"throttled-429":      float64(t.throttled),
		"instances-launched": float64(t.launched),
		"datasets-hits":      float64(datasetHits),
		"usage-nonzero":      usageNonzero,
		"live-rps":           float64(t.reqs) / wallElapsed.Seconds(),
		"live-p50-ms":        quantileMs(t.latencies, 0.50),
		"live-p95-ms":        quantileMs(t.latencies, 0.95),
		"live-p99-ms":        quantileMs(t.latencies, 0.99),
		"live-sim-minutes":   float64(simElapsed) / sim.Minute,
		"live-core-hours":    minCoreHours,
	}
	// Shard/grid keys appear only when the axes are exercised, so the
	// default-run goldens pinned before sharding stay byte-identical.
	if opts.Shards > 1 {
		metrics["shards"] = float64(f.Set.K())
	}
	if opts.BgInstances > 0 {
		metrics["bg-instances"] = float64(opts.BgInstances)
		metrics["bg-shards-populated"] = float64(bgShardsPopulated)
		metrics["live-bg-heartbeats"] = float64(f.Adler.Heartbeats())
		metrics["live-shard-skew-s"] = float64(f.Set.Skew())
	}
	if opts.Topology == core.FollowedClocks {
		metrics["clock-follow"] = 1
		if coord := f.ClockSync; coord != nil {
			metrics["live-clock-syncs"] = float64(coord.Syncs())
			metrics["live-max-skew-s"] = coord.MaxSkew()
			metrics["live-max-skew-excess-s"] = coord.MaxExcess()
			fmt.Fprintf(&b, "clock plane      : %d syncs, max skew %.0f sim s (excess over one interval %.0f s)\n",
				coord.Syncs(), coord.MaxSkew(), coord.MaxExcess())
		}
	}
	for _, r := range t.failures {
		fmt.Fprintf(&b, "failed request   : %v\n", r)
	}
	return scenario.Result{Metrics: metrics, Table: b.String()}, nil
}

// kneeUserPoints is the user axis ConsoleKnee sweeps: past the historic
// 128-user ceiling into the 10³–10⁴ region where a single console's locks
// and accept queue actually matter.
var kneeUserPoints = []int{128, 1024, 4096}

// kneeReplicaPoints is the replica axis: how many stateless consoles share
// the state plane behind the balancer at each user point.
var kneeReplicaPoints = []int{1, 2, 4}

// kneeIters is the read loops per researcher at each point — enough
// requests for a stable p95, small enough that 4096 users stay tractable.
// Request accounting per user is 1 login + kneeIters×4 reads = 9.
const kneeIters = 2

// kneeMaxInFlight bounds concurrently active researchers. 4096 users each
// holding sockets to the balancer (which holds sockets to replicas, which
// hold sockets to the state plane) would exhaust the fd table; a real
// population that size is mostly thinking anyway. The bound is identical
// across replica counts, so the replica comparison stays fair.
const kneeMaxInFlight = 256

// ConsoleKneeOpts shape the knee sweep; zero values mean "sweep the
// default axis" (all kneeUserPoints × all kneeReplicaPoints).
type ConsoleKneeOpts struct {
	Users    int // fix the user axis to one point; 0 = sweep
	Replicas int // fix the replica axis to one point; 0 = sweep
	Iters    int // read loops per researcher; 0 = kneeIters
}

func consoleKneeOptsFrom(params map[string]float64) ConsoleKneeOpts {
	return ConsoleKneeOpts{
		Users:    int(params["users"]),
		Replicas: int(params["replicas"]),
		Iters:    int(params["iters"]),
	}
}

// kneePointResult is one (users, replicas) grid point's aggregate.
type kneePointResult struct {
	reqs, errs int
	p50, p95   float64
}

// runKneePoint storms one grid point: U researchers (at most
// kneeMaxInFlight active at once) each log in through the balancer
// fronting K stateless console replicas over a shared state plane, and
// walk the read routes iters times. No rate limiter anywhere: the knee
// measures the console itself, and request accounting stays
// deterministic. All traffic shares the deployment's pooled client — the
// fd budget must not scale with U.
func runKneePoint(seed uint64, users, replicas, iters int) (kneePointResult, error) {
	d, err := core.StartConsole(core.ConsoleConfig{
		Seed: seed, Scale: 8, Speedup: consoleLoadSpeedup, Replicas: replicas, Serve: true,
	})
	if err != nil {
		return kneePointResult{}, err
	}
	defer d.Close()
	names, err := enroll(d, users, iaas.FreeTierQuota())
	if err != nil {
		return kneePointResult{}, err
	}

	clients := newConsoleClients(d, names)
	sem := make(chan struct{}, kneeMaxInFlight)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := c.login(); err != nil {
				return
			}
			for it := 0; it < iters; it++ {
				for _, path := range []string{
					"/console/instances", "/console/usage",
					"/console/datasets?q=genomics", "/console/status",
				} {
					drain(c.do("GET", path, "", http.StatusOK))
				}
			}
		}()
	}
	wg.Wait()

	t := tallyRecords(clients)
	return kneePointResult{reqs: t.reqs, errs: t.errs,
		p50: quantileMs(t.latencies, 0.50), p95: quantileMs(t.latencies, 0.95)}, nil
}

// ConsoleKnee probes console p95 latency across a (users × replicas) grid:
// at each point U researchers hammer the read routes through tukey-lb
// fronting K stateless console replicas over a shared tukeystate plane.
// Per replica count, the knee is the first user point whose p95 exceeds
// twice that replica count's baseline p95 — so the sweep answers the
// capacity-planning question directly: how far does each added replica
// push the knee?
func ConsoleKnee(seed uint64, opts ConsoleKneeOpts) (scenario.Result, error) {
	userPoints, replicaPoints := kneeUserPoints, kneeReplicaPoints
	if opts.Users > 0 {
		userPoints = []int{opts.Users}
	}
	if opts.Replicas > 0 {
		replicaPoints = []int{opts.Replicas}
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = kneeIters
	}

	metrics := map[string]float64{"points": float64(len(userPoints) * len(replicaPoints))}
	var b strings.Builder
	fmt.Fprintf(&b, "console latency knee: read-route storm, %v researchers × %v replicas\n",
		userPoints, replicaPoints)
	fmt.Fprintln(&b, strings.Repeat("-", 72))

	// p95 at the largest user point per replica count: the headline
	// "does adding replicas move the knee" series.
	maxUsers := userPoints[len(userPoints)-1]
	topP95 := make([]float64, 0, len(replicaPoints))

	for _, k := range replicaPoints {
		baseP95, knee := 0.0, 0.0
		for _, u := range userPoints {
			pt, err := runKneePoint(seed, u, k, iters)
			if err != nil {
				return scenario.Result{}, err
			}
			if baseP95 == 0 {
				baseP95 = pt.p95
			} else if knee == 0 && pt.p95 > 2*baseP95 {
				knee = float64(u)
			}
			key := fmt.Sprintf("[%d-users,%d-replicas]", u, k)
			metrics["requests-total"+key] = float64(pt.reqs)
			metrics["request-errors"+key] = float64(pt.errs)
			metrics["live-p50-ms"+key] = pt.p50
			metrics["live-p95-ms"+key] = pt.p95
			if u == maxUsers {
				topP95 = append(topP95, pt.p95)
			}
			fmt.Fprintf(&b, "%4d users × %d replicas: %5d requests, %d errors, p50 %.2f ms, p95 %.2f ms\n",
				u, k, pt.reqs, pt.errs, pt.p50, pt.p95)
		}
		metrics[fmt.Sprintf("live-knee-users[%d-replicas]", k)] = knee
		if knee > 0 {
			fmt.Fprintf(&b, "  %d replica(s): p95 knees (>2× the %d-user baseline) at %.0f users\n",
				k, userPoints[0], knee)
		} else {
			fmt.Fprintf(&b, "  %d replica(s): no p95 knee up to %d users\n", k, maxUsers)
		}
	}
	if len(topP95) == len(replicaPoints) && len(replicaPoints) > 1 {
		improves := true
		for i := 1; i < len(topP95); i++ {
			if topP95[i] > topP95[i-1] {
				improves = false
			}
		}
		fmt.Fprintf(&b, "p95 at %d users across %v replicas: %v ms (monotone improvement: %v)\n",
			maxUsers, replicaPoints, topP95, improves)
	}
	return scenario.Result{Metrics: metrics, Table: b.String()}, nil
}

// quantileMs returns the q-quantile (nearest-rank) of sorted durations, in
// milliseconds.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
