package main

// The three console workloads: one rig builder with three topologies, the
// shared closed-loop op loop, its oracle, and the probes that time the
// layers no interface seam reaches (iaas, the live sim clock, telemetry).

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/lb"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
)

type consoleKind int

const (
	kindLocal consoleKind = iota
	kindGrid
	kindReplicas
)

const replicaCount = 2

// userQuota admits the home VM plus one scratch VM with room to spare.
var userQuota = iaas.Quota{MaxInstances: 10, MaxCores: 16}

type consoleRig struct {
	cfg  *config
	name string
	kind consoleKind
	tr   *tracer // nil on an untraced rig

	f       *core.Federation
	front   string // what the clients talk to: the console, or the balancer
	driver  *sim.Driver
	closers []func()

	// One console, middleware and registry per replica (one in all for the
	// single-console topologies).
	mws      []*tukey.Middleware
	regs     []*telemetry.Registry
	pool     *lb.Pool
	stores   []*tukeystate.RemoteSessionStore
	limiters []*tukeystate.RemoteLimiter

	users   []string
	clients []*consoleClient
	probe   *probe // the last traced phase's engine samples

	// Accounting over the measured phases, for the end-of-run oracle.
	usersDone, usageChecked int
	translations0           int64
	served0                 []float64
	last                    consolePhase
}

// consolePhase keeps the measured phase's per-route samples for finish.
type consolePhase struct {
	routes   [numRoutes][]int64 // ns
	requests int
	perS     float64
	elapsed  time.Duration
	fired0   uint64
	beats0   uint64
}

func userName(seed uint64, i int) string { return fmt.Sprintf("u%x-%04d", seed&0xffff, i) }

func pooledClient(perHost int, timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 4 * perHost
	tr.MaxIdleConnsPerHost = perHost
	return &http.Client{Timeout: timeout, Transport: tr}
}

// serve mounts h on a loopback listener that close() shuts down.
func (rig *consoleRig) serve(h http.Handler) string {
	srv := httptest.NewServer(h)
	rig.closers = append(rig.closers, srv.Close)
	return srv.URL
}

// buildConsole assembles the federation behind live loopback HTTP from the
// exported constructors, the way cmd/tukey-server does, and populates it.
// With traced set every interface seam gets its wrapper.
func buildConsole(cfg *config, name string, kind consoleKind, traced bool) (rig, error) {
	f, err := core.New(core.Options{Seed: cfg.seed, Scale: 8})
	if err != nil {
		return nil, err
	}
	rig := &consoleRig{cfg: cfg, name: name, kind: kind, f: f}
	rig.users = make([]string, cfg.sz.users[kind])
	for i := range rig.users {
		rig.users[i] = userName(cfg.seed, i)
	}
	if traced {
		// ~14 spans per request on the replica topology, ≤ 10⁴ requests/s.
		rig.tr = newTracer(int(200_000*cfg.seconds)+1<<16, rig.users)
	}

	if kind == kindGrid {
		// Hosts and the heartbeat period must land before any launch.
		for i := 0; i*gridHostCores < cfg.sz.background+gridHostCores; i++ {
			f.Adler.AddHost(iaas.NewHost(fmt.Sprintf("grid-%03d", i),
				gridHostCores, gridHostCores*4096, gridHostCores*100))
		}
		f.Adler.SetHeartbeat(gridHeartbeat)
	}

	// Each cloud behind its native dialect on loopback, reached through a
	// cloudapi.Remote injected as CloudConfig.API.
	cloudClient := pooledClient(cfg.clients, cloudapi.DefaultTimeout)
	rig.closers = append(rig.closers, cloudClient.CloseIdleConnections)
	for _, c := range []*iaas.Cloud{f.Adler, f.Sullivan} {
		var h http.Handler = cloudapi.NewServer(c)
		if traced {
			h = rig.tr.cloudServerHandler(c.Stack, h)
		}
		var api cloudapi.CloudAPI = cloudapi.NewRemote(c.Name, c.Stack, rig.serve(h), cloudClient)
		if traced {
			api = &tracedCloud{CloudAPI: api, t: rig.tr, dialect: dialectOf(c.Stack)}
		}
		f.Tukey.AttachCloud(tukey.CloudConfig{Name: c.Name, Stack: c.Stack, API: api})
	}

	// console builds one tukey.Console with its registry attached the way
	// tukey-server attaches it; the first also carries the kernel series.
	console := func(mw *tukey.Middleware) *tukey.Console {
		c := &tukey.Console{MW: mw, Biller: f.Biller, Catalog: f.Catalog, UsageMon: f.UsageMon}
		reg := telemetry.NewRegistry()
		if len(rig.regs) == 0 {
			f.RegisterTelemetry(reg)
		}
		c.RegisterMetrics(reg)
		rig.mws = append(rig.mws, mw)
		rig.regs = append(rig.regs, reg)
		return c
	}
	// front serves a console or the balancer, wrapped when traced.
	front := func(l layer, h http.Handler) string {
		if traced {
			h = rig.tr.consoleHandler(l, h)
		}
		return rig.serve(h)
	}

	if kind != kindReplicas {
		if traced {
			f.Tukey.SetSessionStore(&tracedStore{inner: tukey.NewMemorySessionStore(), t: rig.tr})
		}
		rig.front = front(layerTukey, console(f.Tukey))
	} else {
		// What tukey-server -state-url assembles, twice, behind tukey-lb.
		var state http.Handler = tukeystate.NewServer(tukey.NewMemorySessionStore(), nil)
		if traced {
			state = rig.tr.stateServerHandler(state)
		}
		stateURL := rig.serve(state)
		stateClient := pooledClient(cfg.clients, tukeystate.DefaultTimeout)
		rig.closers = append(rig.closers, stateClient.CloseIdleConnections)
		urls := make([]string, replicaCount)
		for k := range urls {
			remote := tukeystate.NewRemoteSessionStore(stateURL, stateClient)
			limiter := tukeystate.NewRemoteLimiter(stateURL, stateClient)
			rig.stores = append(rig.stores, remote)
			rig.limiters = append(rig.limiters, limiter)
			var store tukey.SessionStore = remote
			if traced {
				store = &tracedStore{inner: remote, t: rig.tr, remote: true}
			}
			c := console(f.AddTukeyReplica(store, fmt.Sprintf("r%d-", k)))
			c.Limiter = limiter
			if traced {
				c.Limiter = &tracedLimiter{inner: limiter, t: rig.tr}
			}
			urls[k] = front(layerTukey, c)
		}
		lbClient := pooledClient(cfg.clients, 30*time.Second)
		rig.closers = append(rig.closers, lbClient.CloseIdleConnections)
		rig.pool = lb.NewPool(urls, lbClient)
		rig.front = front(layerLB, rig.pool)
	}

	// Accounts, after the replicas exist so grants reach every one.
	for _, u := range rig.users {
		f.EnrollResearcher(u, "pw-"+u)
		f.Adler.SetQuota(u, userQuota)
		f.Sullivan.SetQuota(u, userQuota)
	}
	if kind == kindGrid {
		if err := rig.age(); err != nil {
			rig.close()
			return nil, err
		}
	}

	rig.clients = make([]*consoleClient, cfg.clients)
	for i := range rig.clients {
		rig.clients[i] = newConsoleClient(rig, i)
	}
	// The clock goes live last: from here on handlers, pollers and
	// heartbeats share the engine lock.
	rig.driver = sim.StartDriver(f.Engine, driverSpeedup, driverTick)
	return rig, nil
}

// age gives the federation three years of operation, straight through
// iaas.Cloud: a background population on Adler launched evenly over one
// heartbeat period (so the live clock later fires a steady ~55 beats per
// simulated second, not one 10⁵-event tick), then a terminated-instance
// history for every benchmark user on Sullivan.
func (rig *consoleRig) age() error {
	f, n := rig.f, rig.cfg.sz.background
	f.Adler.SetQuota(gridUser, iaas.Quota{MaxInstances: n + 1, MaxCores: n + 1})
	const steps = 1000
	for i := 0; i < n; i++ {
		if _, err := f.Adler.Launch(gridUser, "bg-"+strconv.Itoa(i), "m1.small", ""); err != nil {
			return fmt.Errorf("grid launch %d/%d: %w", i, n, err)
		}
		if (i+1)%(n/steps+1) == 0 {
			f.Engine.RunFor(gridHeartbeat / steps)
		}
	}
	for _, u := range rig.users {
		if err := launchHistory(f.Sullivan, u, rig.cfg.sz.history); err != nil {
			return err
		}
	}
	return nil
}

func launchHistory(c *iaas.Cloud, user string, n int) error {
	for i := 0; i < n; i++ {
		inst, err := c.Launch(user, "old-"+strconv.Itoa(i), "m1.small", "")
		if err != nil {
			return fmt.Errorf("history launch for %s: %w", user, err)
		}
		if err := c.Terminate(user, inst.ID); err != nil {
			return fmt.Errorf("history terminate for %s: %w", user, err)
		}
	}
	return nil
}

func (rig *consoleRig) close() {
	if rig.driver != nil {
		rig.driver.Stop()
	}
	for _, c := range rig.clients {
		c.hc.CloseIdleConnections()
	}
	for i := len(rig.closers) - 1; i >= 0; i-- {
		rig.closers[i]()
	}
	rig.f.Biller.Stop()
	rig.f.UsageMon.Stop()
}

// translations sums Middleware.Translations over the consoles. The field
// has no accessor; Clouds() takes the lock that guards it, which orders
// this read after every handler's increment.
func (rig *consoleRig) translations() int64 {
	var n int64
	for _, mw := range rig.mws {
		_ = mw.Clouds()
		n += mw.Translations
	}
	return n
}

// served counts the requests each console's registry has seen since the
// rig was built; servedInPhase, since the last phase began.
func (rig *consoleRig) servedInPhase() []float64 {
	out := rig.served()
	for i := range out {
		out[i] -= rig.served0[i]
	}
	return out
}

func (rig *consoleRig) served() []float64 {
	out := make([]float64, len(rig.regs))
	for i, reg := range rig.regs {
		for k, v := range reg.Snapshot() {
			if strings.HasPrefix(k, "osdc_console_requests_total{") {
				out[i] += v
			}
		}
	}
	return out
}

// consoleClient is one closed-loop researcher-at-a-time generator: its own
// keep-alive connection, its own users, its own RNG.
type consoleClient struct {
	rig   *consoleRig
	hc    *http.Client
	rng   *sim.RNG
	users []int32 // indices into rig.users, never revisited
	next  int
	buf   bytes.Buffer
	seq   int32 // request number within the current user

	// Per drive() call.
	routes   [numRoutes][]int64
	cycles   []float64 // seconds per completed user
	failed   int
	problems []string
	done     int // users completed
	checked  int // of those, with a billing poll inside the home VM's life
	busy     time.Duration
}

func newConsoleClient(rig *consoleRig, id int) *consoleClient {
	c := &consoleClient{rig: rig, hc: pooledClient(1, 30*time.Second),
		rng: sim.NewRNG(rig.cfg.seed + uint64(id)*7919)}
	for i := id; i < len(rig.users); i += rig.cfg.clients {
		c.users = append(c.users, int32(i))
	}
	return c
}

func (c *consoleClient) problemf(format string, args ...interface{}) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// do sends one request and reads the reply into c.buf. It is timed from
// just before the send to the end of the body.
func (c *consoleClient) do(user int32, route uint8, method, path, token, body string, want int) bool {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.rig.front+path, rd)
	if err != nil {
		c.failed++
		c.problemf("%s %s: %v", method, path, err)
		return false
	}
	if token != "" {
		req.Header.Set("X-Tukey-Session", token)
	}
	tr := c.rig.tr
	if tr != nil {
		req.Header.Set(benchReqHeader, strconv.Itoa(int(user))+"-"+strconv.Itoa(int(c.seq)))
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	c.routes[route] = append(c.routes[route], int64(end.Sub(start)))
	if tr != nil {
		tr.record(user, c.seq, layerClient, route, dialectNone,
			int64(start.Sub(tr.base)), int64(end.Sub(tr.base)))
	}
	c.seq++
	if err != nil || status != want {
		c.failed++
		c.problemf("%s %s for %s: status %d (want %d), err %v", method, path, c.rig.users[user], status, want, err)
		return false
	}
	return true
}

// field extracts a string field's value from the JSON reply in c.buf.
func (c *consoleClient) field(name string) string {
	return between(c.buf.String(), `"`+name+`":"`, `"`)
}

func (c *consoleClient) launch(user int32, token, cloud, name string) string {
	body := `{"cloud":"` + cloud + `","name":"` + name + `","flavor":"m1.small"}`
	if !c.do(user, opLaunch, "POST", "/console/launch", token, body, http.StatusAccepted) {
		return ""
	}
	id := c.field("id")
	if id == "" {
		c.failed++
		c.problemf("launch on %s returned no instance id", cloud)
	}
	return id
}

func (c *consoleClient) terminate(user int32, token, cloud, id string) {
	c.do(user, opTerminate, "POST", "/console/terminate", token,
		`{"cloud":"`+cloud+`","id":"`+id+`"}`, http.StatusOK)
}

var readRoutes = [4]struct {
	op   uint8
	path string
}{
	{opInstances, "/console/instances"}, {opUsage, "/console/usage"},
	{opDatasets, "/console/datasets?q=genomics"}, {opStatus, "/console/status"},
}

// runUser walks one account through the op loop: login, a home VM on the
// OpenStack cloud, iters × [scratch VM on the EC2 cloud, the four reads in
// seeded order, terminate], terminate the home VM.
func (c *consoleClient) runUser(user int32, iters int) {
	name := c.rig.users[user]
	engine := c.rig.f.Engine
	c.seq = 0
	if !c.do(user, opLogin, "POST", "/login", "",
		`{"provider":"shibboleth","username":"`+name+`","secret":"pw-`+name+`"}`, http.StatusOK) {
		return
	}
	token := c.field("token")
	home := c.launch(user, token, core.ClusterAdler, name+"-home")
	// The billing poll samples running VMs on every simulated minute; the
	// first boundary after the launch is the earliest the home VM can have
	// been metered. Two simulated seconds past it, the driver tick that
	// fired the poll has certainly returned.
	metered := sim.Time((int(engine.Now()/sim.Time(sim.Minute))+1)*int(sim.Minute)) + 2
	var prev, coreHours string
	var usageAt sim.Time
	order := [4]int{0, 1, 2, 3}
	for it := 0; it < iters; it++ {
		id := c.launch(user, token, core.ClusterSullivan, name+"-"+strconv.Itoa(it))
		c.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			rt := readRoutes[k]
			if rt.op == opUsage && it == iters-1 {
				usageAt = engine.Now()
			}
			if !c.do(user, rt.op, "GET", rt.path, token, "", http.StatusOK) {
				continue
			}
			switch rt.op {
			case opInstances:
				// Each launched ID is in the next listing and gone after
				// its terminate.
				list := c.buf.String()
				if !strings.Contains(list, `"`+id+`"`) || !strings.Contains(list, `"`+home+`"`) ||
					(prev != "" && strings.Contains(list, `"`+prev+`"`)) {
					c.failed++
					c.problemf("%s iteration %d: listing lacks %s or %s, or still has %s", name, it, id, home, prev)
				}
			case opUsage:
				coreHours = between(c.buf.String(), `"core_hours":`, ",")
			}
		}
		c.terminate(user, token, core.ClusterSullivan, id)
		prev = id
	}
	c.terminate(user, token, core.ClusterAdler, home)
	c.done++
	if usageAt >= metered {
		c.checked++
		if v, err := strconv.ParseFloat(coreHours, 64); err != nil || v <= 0 {
			c.failed++
			c.problemf("%s: core_hours %q after a billing poll", name, coreHours)
		}
	}
}

// drive runs every client through whole users until d has passed (or, for
// -validate-only, through exactly one user). Whole users keep the request
// accounting closed-form; a client overshoots d by at most one user.
func (rig *consoleRig) drive(d time.Duration) phase {
	ph := consolePhase{fired0: rig.f.Engine.Fired(), beats0: rig.f.Adler.Heartbeats()}
	rig.translations0, rig.served0 = rig.translations(), rig.served()
	if rig.tr != nil {
		rig.tr.reset() // spans and counters cover the last phase only
	}
	stop := rig.startProbe()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range rig.clients {
		c.routes, c.cycles, c.failed, c.problems, c.done, c.checked = [numRoutes][]int64{}, nil, 0, nil, 0, 0
		wg.Add(1)
		go func(c *consoleClient) {
			defer wg.Done()
			for c.next < len(c.users) {
				t0 := time.Now()
				c.runUser(c.users[c.next], rig.cfg.sz.iters)
				c.cycles = append(c.cycles, time.Since(t0).Seconds())
				c.next++
				if rig.cfg.validate || !time.Now().Before(deadline) {
					break
				}
			}
			c.busy = time.Since(start)
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	stop()

	out := phase{}
	rig.usersDone, rig.usageChecked = 0, 0
	for _, c := range rig.clients {
		n := 0
		for r := range c.routes {
			ph.routes[r] = append(ph.routes[r], c.routes[r]...)
			out.latencyNs = append(out.latencyNs, c.routes[r]...)
			n += len(c.routes[r])
		}
		ph.requests += n
		// Clients finish within one user of each other; summing their own
		// rates keeps the last one's lonely tail out of the throughput.
		ph.perS += float64(n) / c.busy.Seconds()
		if len(c.cycles) > 0 {
			out.opsPerS += float64(3+rig.cfg.sz.iters*requestsPerIter) / median(c.cycles)
		}
		out.failed += c.failed
		rig.usersDone += c.done
		rig.usageChecked += c.checked
		for _, p := range c.problems {
			fmt.Fprintln(stderr, "  "+p)
		}
	}
	rig.last = ph
	out.ops, out.attempted, out.allocOps = ph.requests, ph.requests, float64(ph.requests)
	for _, rt := range readRoutes {
		out.referenceNs = append(out.referenceNs, ph.routes[rt.op]...)
	}
	return out
}

// finish checks the last phase's accounting and reports the client view;
// on a traced rig it also probes the layers and reduces the spans.
func (rig *consoleRig) finish(res *result) {
	ph := &rig.last
	perUser := 3 + rig.cfg.sz.iters*requestsPerIter
	if want := rig.usersDone * perUser; ph.requests != want {
		res.problemf("client.requests %d, closed form %d users × %d = %d", ph.requests, rig.usersDone, perUser, want)
	}
	if want := int64(rig.usersDone * (2 + rig.cfg.sz.iters*translationsPerIter)); rig.translations()-rig.translations0 != want {
		res.problemf("tukey translations %d, closed form %d", rig.translations()-rig.translations0, want)
	}
	if !rig.cfg.validate && rig.usageChecked == 0 {
		res.problemf("no user's home VM lived through a billing poll: usage never checked")
	}
	phaseName := "untraced"
	if rig.tr != nil {
		phaseName = "traced"
	}
	res.tables = append(res.tables, fmt.Sprintf("console oracle, %s phase: %d users × %d requests; metered usage checked on the %d whose home VM lived through a billing poll\n",
		phaseName, rig.usersDone, perUser, rig.usageChecked))
	for _, c := range rig.clients {
		if c.next >= len(c.users) && !rig.cfg.validate {
			fmt.Fprintf(stderr, "  note: a client used all %d of its accounts before the phase ended; raise sizes.users\n", len(c.users))
		}
	}
	if rig.kind == kindReplicas {
		for k, n := range rig.servedInPhase() {
			if n == 0 {
				res.problemf("replica r%d served no traffic", k)
			}
		}
		if n := rig.stateErrors(); n != 0 {
			res.problemf("tukeystate.errors %d", n)
		}
	}

	var reads, writes, all []int64
	for r := range ph.routes {
		all = append(all, ph.routes[r]...)
		switch uint8(r) {
		case opLogin, opLaunch, opTerminate:
			writes = append(writes, ph.routes[r]...)
		default:
			reads = append(reads, ph.routes[r]...)
		}
	}
	if rig.tr != nil {
		rig.finishTraced(res)
		return
	}
	readMs, writeMs, allMs := nsToFloat(reads, 1e6), nsToFloat(writes, 1e6), nsToFloat(all, 1e6)
	res.set("client.requests", float64(ph.requests), ph.requests)
	res.set("client.req_per_s", ph.perS, ph.requests)
	res.set("client.read_p50_ms", percentile(readMs, 50), len(readMs))
	res.set("client.read_p95_ms", percentile(readMs, 95), len(readMs))
	res.set("client.write_p50_ms", percentile(writeMs, 50), len(writeMs))
	res.set("client.write_p95_ms", percentile(writeMs, 95), len(writeMs))
	res.set("client.p99_ms", percentile(allMs, 99), len(allMs))
	for r := range ph.routes {
		ms := nsToFloat(ph.routes[r], 1e6)
		res.set("client."+opNames[r]+"_p50_ms", percentile(ms, 50), len(ms))
	}
}

func (rig *consoleRig) stateErrors() int64 {
	var n int64
	for _, s := range rig.stores {
		if s.Err() != nil {
			n++
		}
	}
	for _, l := range rig.limiters {
		n += atomic.LoadInt64(&l.Errors)
	}
	return n
}

// probe samples the live engine while a traced phase runs: how long a
// caller waits for the shared engine lock, the queue depth, how far the
// driver lags behind 600 × wall time, and the goroutine count.
type probe struct {
	nowWaitUs, pending, lagMs []float64
	goroutines                int
}

// startProbe starts the 1 kHz probe on a traced rig; the returned function
// stops it and waits for it. On an untraced rig both are no-ops.
func (rig *consoleRig) startProbe() (stop func()) {
	if rig.tr == nil {
		return func() {}
	}
	p := &probe{}
	rig.probe = p
	quit, done := make(chan struct{}), make(chan struct{})
	e := rig.f.Engine
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		wall0, sim0 := time.Now(), e.Now()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			now := e.Now()
			t1 := time.Now()
			p.nowWaitUs = append(p.nowWaitUs, float64(t1.Sub(t0))/1e3)
			lag := t1.Sub(wall0).Seconds() - float64(now-sim0)/driverSpeedup
			p.lagMs = append(p.lagMs, lag*1e3)
			if i%10 == 0 {
				p.pending = append(p.pending, float64(e.Pending()))
				if g := runtime.NumGoroutine(); g > p.goroutines {
					p.goroutines = g
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// finishTraced turns the traced phase into per-layer metrics: counters
// read at the seams, direct probes of iaas, sim and telemetry on the live
// rig (driver still running), and the reduced span tree.
func (rig *consoleRig) finishTraced(res *result) {
	ph, tr, f := &rig.last, rig.tr, rig.f
	reqs := float64(ph.requests)

	// --- counters at the seams ---
	calls := tr.cloudCalls.Load()
	res.set("cloudapi.calls", float64(calls), int(calls))
	res.set("cloudapi.calls_per_req", float64(calls)/reqs, ph.requests)
	res.set("cloudapi.errors", float64(tr.cloudErrs.Load()), int(calls))
	translations := rig.translations() - rig.translations0
	res.set("tukey.translations", float64(translations), ph.requests)
	if translations != calls {
		res.problemf("tukey.translations %d != cloudapi.calls %d", translations, calls)
	}
	res.set("tukey.session_gets_per_req", float64(tr.sessionGets.Load())/reqs, ph.requests)
	if rig.kind == kindReplicas {
		served := rig.servedInPhase()
		var total, max float64
		for _, n := range served {
			total += n
			if n > max {
				max = n
			}
		}
		res.set("lb.requests", total, int(total))
		res.set("lb.retries", float64(atomic.LoadInt64(&rig.pool.Retries)), int(total))
		res.set("lb.backend_share_max", max/total, int(total))
		res.set("tukeystate.roundtrips_per_req", float64(tr.stateTrips.Load())/reqs, ph.requests)
		res.set("tukeystate.errors", float64(rig.stateErrors()), int(tr.stateTrips.Load()))
	}

	// --- sim: the live, locked clock ---
	if p := rig.probe; p != nil && len(p.nowWaitUs) > 0 {
		fired := f.Engine.Fired() - ph.fired0
		res.set("sim.events_fired", float64(fired), int(fired))
		res.set("sim.events_per_wall_s", float64(fired)/ph.elapsed.Seconds(), int(fired))
		res.set("sim.pending_p50", median(p.pending), len(p.pending))
		res.setTwins("sim.now_wait_us", p.nowWaitUs)
		res.set("sim.driver_lag_ms_p95", percentile(sorted(p.lagMs), 95), len(p.lagMs))
		if g := float64(p.goroutines); g > res.metrics["go.goroutines_peak"].value {
			res.set("go.goroutines_peak", g, len(p.pending))
		}
	}
	res.set("iaas.heartbeats", float64(f.Adler.Heartbeats()-ph.beats0), 1)

	rig.probeIaas(res)
	rig.probeTelemetry(res)

	// --- the span tree ---
	if n := tr.dropped(); n > 0 {
		res.problemf("%d spans did not fit the trace buffer", n)
	}
	spans := tr.recorded()
	a := analyse(spans)
	if a.orphans > 0 {
		res.problemf("%d spans have no client request above them", a.orphans)
	}
	res.set("trace.spans", float64(a.spans), a.spans)
	gap := 100 * a.budgetGap()
	res.set("trace.budget_gap_pct", gap, ph.requests)
	if gap > 10 && !rig.cfg.validate {
		res.problemf("per-layer median self times miss the client-observed median by %.1f %% (> 10 %%)", gap)
	}
	res.setTwins("client.unattributed_us", a.byLayer[layerClient].self)
	res.setTwins("tukey.console_us", a.byLayer[layerTukey].total)
	res.setTwins("tukey.self_us", a.byLayer[layerTukey].self)
	res.setTwins("cloudapi.server_us", a.byLayer[layerCloudServer].total)
	res.setTwins("cloudapi.wire_us", a.byLayer[layerCloud].self)
	pool := func(l layer, pick func(spanKey) bool) []float64 {
		var out []float64
		for k, d := range a.byKey {
			if k.layer == l && pick(k) {
				out = append(out, d.total...)
			}
		}
		return out
	}
	res.setTwins("cloudapi.remote_nova_us", pool(layerCloud, func(k spanKey) bool { return k.aux == dialectNova }))
	res.setTwins("cloudapi.remote_ec2_us", pool(layerCloud, func(k spanKey) bool { return k.aux == dialectEC2 }))
	rig.serverSelf(res, a)
	if rig.kind == kindReplicas {
		res.setTwins("lb.self_us", a.byLayer[layerLB].self)
		for _, op := range []uint8{opGet, opPut, opAllow} {
			res.setTwins("tukeystate."+opNames[op]+"_us", pool(layerState, func(k spanKey) bool { return k.op == op }))
		}
		res.setTwins("tukeystate.server_us", a.byLayer[layerStateServer].total)
		res.setTwins("tukeystate.wire_us", a.byLayer[layerState].self)
	}
	res.tables = append(res.tables, spanTable(a), budgetTable(a))
	if !rig.cfg.validate {
		path := rig.cfg.tracePath(rig.name)
		if err := writeTrace(path, spans, rig.users); err != nil {
			res.problemf("writing %s: %v", path, err)
		}
	}
}

// serverSelf estimates what cloudapi.Server adds on top of iaas: for each
// verb on the EC2 cloud (where the scratch VMs and the histories live),
// the server span's percentile minus the matching direct iaas probe's,
// weighted by how often the verb ran.
func (rig *consoleRig) serverSelf(res *result, a *analysis) {
	probes := map[uint8]string{opLaunch: "iaas.launch_us", opInstances: "iaas.instances_us", opTerminate: "iaas.terminate_us"}
	var p50, p95, n float64
	for op, stem := range probes {
		d := a.byKey[spanKey{layerCloudServer, op, dialectEC2}]
		if d == nil {
			continue
		}
		asc, w := sorted(d.total), float64(len(d.total))
		p50 += w * (percentile(asc, 50) - res.metrics[stem+"_p50"].value)
		p95 += w * (percentile(asc, 95) - res.metrics[stem+"_p95"].value)
		n += w
	}
	if n > 0 {
		res.set("cloudapi.server_self_us_p50", p50/n, int(n))
		res.set("cloudapi.server_self_us_p95", p95/n, int(n))
	}
}

// timeCalls times n calls of f one by one, in µs, ascending.
func timeCalls(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f(i)
		out[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(out)
	return out
}

// probeIaas calls iaas.Cloud directly on the live rig, with the users the
// loop just used and the driver still running.
func (rig *consoleRig) probeIaas(res *result) {
	c, n := rig.f.Sullivan, rig.cfg.sz.probes
	used := rig.users[:1]
	if rig.usersDone > 1 {
		used = rig.users[:rig.usersDone]
	}
	res.setTwins("iaas.instances_us", timeCalls(n, func(i int) { c.Instances(used[i%len(used)]) }))
	res.setTwins("iaas.running_by_user_us", timeCalls(n, func(int) { c.RunningByUser() }))

	const prober = "bench-probe"
	c.SetQuota(prober, userQuota)
	// Launch and terminate are timed apart, as pairs.
	lt := make([]float64, n)
	tt := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		inst, err := c.Launch(prober, "probe", "m1.small", "")
		t1 := time.Now()
		if err != nil {
			res.problemf("iaas probe launch: %v", err)
			return
		}
		err = c.Terminate(prober, inst.ID)
		t2 := time.Now()
		if err != nil {
			res.problemf("iaas probe terminate: %v", err)
			return
		}
		lt[i], tt[i] = float64(t1.Sub(t0))/1e3, float64(t2.Sub(t1))/1e3
	}
	res.setTwins("iaas.launch_us", lt)
	res.setTwins("iaas.terminate_us", tt)

	// The history slope: a listing for a user with no records against one
	// with probeHistory terminated ones.
	const fresh, aged = "bench-h0", "bench-h4096"
	c.SetQuota(aged, userQuota)
	depth := probeHistory
	if rig.cfg.validate {
		depth = 8
	}
	if err := launchHistory(c, aged, depth); err != nil {
		res.problemf("iaas history probe: %v", err)
		return
	}
	h0 := timeCalls(n, func(int) { c.Instances(fresh) })
	h4096 := timeCalls(n/4+1, func(int) { c.Instances(aged) })
	res.set("iaas.instances_us_h0", percentile(h0, 50), len(h0))
	res.set("iaas.instances_us_h4096", percentile(h4096, 50), len(h4096))

	records := len(rig.f.Adler.Instances("")) + len(c.Instances(""))
	res.set("iaas.records", float64(records), 1)
}

// probeTelemetry renders the first console's registry and times the
// histogram path every instrumented route pays.
func (rig *consoleRig) probeTelemetry(res *result) {
	reg := rig.regs[0]
	var text []byte
	render := timeCalls(5, func(int) { text = reg.Render() })
	res.set("telemetry.render_ms", percentile(render, 50)/1e3, len(render))
	series := 0
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	res.set("telemetry.series", float64(series), 1)

	h := telemetry.NewRegistry().Histogram("bench_seconds", "probe", telemetry.LatencyBuckets)
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(0.0002)
	}
	res.set("telemetry.observe_ns", float64(time.Since(t0))/n, n)
}
