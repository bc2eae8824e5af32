package main

// Spans are taken from outside the program: around the interfaces it
// already exposes (http.Handler, tukey.SessionStore, tukey.Limiter,
// cloudapi.CloudAPI). Nothing under internal/ knows it is being traced.
//
// A span carries the benchmark user it belongs to. Every user has exactly
// one request outstanding, so within one user's spans time containment
// identifies the parent exactly; the client's sequence number is inherited
// down the tree when the file is written.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/tukey"
)

type layer uint8

const (
	layerClient      layer = iota // the generator: one span per request
	layerLB                       // http.Handler around lb.Pool
	layerTukey                    // http.Handler around tukey.Console
	layerState                    // SessionStore / Limiter decorators on a replica
	layerStateServer              // http.Handler around tukeystate.Server
	layerCloud                    // CloudAPI decorator around cloudapi.Remote
	layerCloudServer              // http.Handler around cloudapi.Server
	numLayers
)

var layerNames = [numLayers]string{
	"client", "lb", "tukey", "tukeystate", "tukeystate.server", "cloudapi", "cloudapi.server",
}

// Span ops. The first seven are the console routes, in the order the
// client tables print them; a cloudapi.server span takes its verb from the
// cloudapi span that caused it.
const (
	opLogin uint8 = iota
	opLaunch
	opInstances
	opUsage
	opDatasets
	opStatus
	opTerminate
	opGet
	opPut
	opDelete
	opAllow
	opOther
	numOps
	numRoutes = opGet // the console routes come first
)

var opNames = [numOps]string{
	"login", "launch", "instances", "usage", "datasets", "status", "terminate",
	"get", "put", "delete", "allow", "other",
}

// Dialects, carried in span.aux by the cloudapi layers.
const (
	dialectNone uint8 = iota
	dialectNova
	dialectEC2
)

var dialectNames = [...]string{"", "nova", "ec2"}

func dialectOf(stack string) uint8 {
	if stack == "eucalyptus" {
		return dialectEC2
	}
	return dialectNova
}

type span struct {
	user       int32 // index into the rig's user list; -1 = unattributed
	seq        int32 // client request number within the user; -1 = inherit
	parent     int32 // index of the parent span after assignParents; -1 = root
	layer      layer
	op, aux    uint8
	start, end int64 // ns since tracer.base
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer is the in-memory span sink. Slots in the preallocated slice are
// claimed with one atomic add, so handler goroutines, decorators and
// clients record without a lock and without allocating.
type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	userIdx map[string]int32 // user name → index; read-only once traffic starts
	tokens  sync.Map         // session token → user index, learnt at Put

	sessionGets atomic.Int64 // SessionStore.Get calls, any backend
	stateTrips  atomic.Int64 // state-plane round trips (get/put/delete/allow)
	cloudCalls  atomic.Int64 // CloudAPI tenant calls
	cloudErrs   atomic.Int64
}

func newTracer(capacity int, users []string) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, capacity), userIdx: make(map[string]int32, len(users))}
	for i, u := range users {
		t.userIdx[u] = int32(i)
	}
	return t
}

// reset forgets the spans and counts taken so far; the token map stays,
// since sessions outlive a phase. Call only while no request is in flight.
func (t *tracer) reset() {
	t.next.Store(0)
	t.sessionGets.Store(0)
	t.stateTrips.Store(0)
	t.cloudCalls.Store(0)
	t.cloudErrs.Store(0)
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(user, seq int32, l layer, op, aux uint8, start, end int64) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return // counted by dropped()
	}
	t.spans[i] = span{user: user, seq: seq, parent: -1, layer: l, op: op, aux: aux, start: start, end: end}
}

// dropped is how many spans did not fit the preallocated slice.
func (t *tracer) dropped() int {
	if n := int(t.next.Load()) - len(t.spans); n > 0 {
		return n
	}
	return 0
}

func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// userOf maps a user name, or a federated identifier user@institution, to
// its index.
func (t *tracer) userOf(name string) int32 {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		name = name[:i]
	}
	if idx, ok := t.userIdx[name]; ok {
		return idx
	}
	return -1
}

func (t *tracer) userOfToken(token string) int32 {
	if v, ok := t.tokens.Load(token); ok {
		return v.(int32)
	}
	return -1
}

// benchReqHeader is how the client names a request to the lb, console and
// (through lb's header clone) replica wrappers: "<user index>-<seq>".
const benchReqHeader = "X-Bench-Req"

func parseBenchReq(v string) (user, seq int32) {
	u, s, ok := strings.Cut(v, "-")
	if !ok {
		return -1, -1
	}
	ui, err1 := strconv.Atoi(u)
	si, err2 := strconv.Atoi(s)
	if err1 != nil || err2 != nil {
		return -1, -1
	}
	return int32(ui), int32(si)
}

var routeOps = map[string]uint8{
	"/login": opLogin, "/console/launch": opLaunch, "/console/instances": opInstances,
	"/console/usage": opUsage, "/console/datasets": opDatasets, "/console/status": opStatus,
	"/console/terminate": opTerminate,
}

// consoleHandler wraps lb.Pool or tukey.Console.
func (t *tracer) consoleHandler(l layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		user, seq := parseBenchReq(r.Header.Get(benchReqHeader))
		op, ok := routeOps[r.URL.Path]
		if !ok {
			op = opOther
		}
		t.record(user, seq, l, op, dialectNone, start, end)
	})
}

// cloudServerHandler wraps cloudapi.Server; the native dialects carry the
// auth user in a header (Nova) or a query parameter (EC2).
func (t *tracer) cloudServerHandler(stack string, h http.Handler) http.Handler {
	dialect := dialectOf(stack)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		name := r.Header.Get("X-Auth-User")
		if name == "" {
			name = between(r.URL.RawQuery, "AWSAccessKeyId=", "&")
		}
		t.record(t.userOf(name), -1, layerCloudServer, opOther, dialect, start, end)
	})
}

// between returns the part of s after the first occurrence of open and
// before the next occurrence of end (or the rest of s); "" when open is
// absent.
func between(s, open, end string) string {
	i := strings.Index(s, open)
	if i < 0 {
		return ""
	}
	s = s[i+len(open):]
	if j := strings.Index(s, end); j >= 0 {
		s = s[:j]
	}
	return s
}

var stateOps = map[string]uint8{
	"/state/sessions/get": opGet, "/state/sessions/put": opPut,
	"/state/sessions/delete": opDelete, "/state/ratelimit/allow": opAllow,
}

// stateServerHandler wraps tukeystate.Server. The wire form names the
// caller only in the body (a session token, or a rate-limit key), so the
// wrapper reads the body, replays it to the server and times only the
// server.
func (t *tracer) stateServerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body) // a short read fails the server's own decode
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		op, ok := stateOps[r.URL.Path]
		if !ok {
			op = opOther
		}
		// The handler's reply is flushed when this function returns, so
		// the caller is found with two substring scans, not a JSON decode.
		// User names and tokens need no escaping.
		user := t.userOf(between(string(body), `"key":"`, `"`))
		if token := between(string(body), `"token":"`, `"`); token != "" {
			user = t.userOfToken(token)
		}
		t.record(user, -1, layerStateServer, op, dialectNone, start, end)
	})
}

// tracedStore decorates a tukey.SessionStore. With remote unset (the
// in-memory store of the single-console topologies) it only counts, since
// the store is then part of the tukey layer's own time.
type tracedStore struct {
	inner  tukey.SessionStore
	t      *tracer
	remote bool
}

func (s *tracedStore) call(user int32, op uint8, f func()) {
	if !s.remote {
		f()
		return
	}
	start := s.t.now()
	f()
	s.t.record(user, -1, layerState, op, dialectNone, start, s.t.now())
	s.t.stateTrips.Add(1)
}

func (s *tracedStore) Get(token string) (sess tukey.Session, ok bool) {
	s.t.sessionGets.Add(1)
	s.call(s.t.userOfToken(token), opGet, func() { sess, ok = s.inner.Get(token) })
	return sess, ok
}

func (s *tracedStore) Put(token string, sess tukey.Session) {
	user := s.t.userOf(sess.Identity.Identifier)
	s.t.tokens.Store(token, user)
	s.call(user, opPut, func() { s.inner.Put(token, sess) })
}

func (s *tracedStore) Delete(token string) {
	s.call(s.t.userOfToken(token), opDelete, func() { s.inner.Delete(token) })
}

func (s *tracedStore) Count() int                   { return s.inner.Count() }
func (s *tracedStore) ExpireBefore(t time.Time) int { return s.inner.ExpireBefore(t) }

// tracedLimiter decorates the replicas' tukeystate.RemoteLimiter.
type tracedLimiter struct {
	inner tukey.Limiter
	t     *tracer
}

func (l *tracedLimiter) AllowN(key string, cost float64) bool {
	start := l.t.now()
	ok := l.inner.AllowN(key, cost)
	l.t.record(l.t.userOf(key), -1, layerState, opAllow, dialectNone, start, l.t.now())
	l.t.stateTrips.Add(1)
	return ok
}

// tracedCloud decorates the cloudapi.CloudAPI handed to tukey through
// CloudConfig.API: the three tenant calls the console op loop makes.
type tracedCloud struct {
	cloudapi.CloudAPI
	t       *tracer
	dialect uint8
}

func (c *tracedCloud) done(user string, op uint8, start int64, err error) {
	c.t.record(c.t.userOf(user), -1, layerCloud, op, c.dialect, start, c.t.now())
	c.t.cloudCalls.Add(1)
	if err != nil {
		c.t.cloudErrs.Add(1)
	}
}

func (c *tracedCloud) Launch(user, name, flavor, image string) (cloudapi.Instance, error) {
	start := c.t.now()
	inst, err := c.CloudAPI.Launch(user, name, flavor, image)
	c.done(user, opLaunch, start, err)
	return inst, err
}

func (c *tracedCloud) Terminate(user, id string) error {
	start := c.t.now()
	err := c.CloudAPI.Terminate(user, id)
	c.done(user, opTerminate, start, err)
	return err
}

func (c *tracedCloud) Instances(user string) ([]cloudapi.Instance, error) {
	start := c.t.now()
	out, err := c.CloudAPI.Instances(user)
	c.done(user, opInstances, start, err)
	return out, err
}

// assignParents orders spans by user and start time and sets each span's
// parent to the innermost span of the same user that was open when it
// started. A user has one request outstanding, so that span caused it. A
// client span is always a root. Only the start has to lie inside the
// parent: a handler that streams a reply of known length can return a few
// µs after its caller has read the last byte. A child without a sequence
// number (or, for cloudapi.server, a verb) inherits its parent's.
func assignParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.user != b.user {
			return a.user < b.user
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end // the longer span is the outer one
		}
		return a.layer < b.layer
	})
	var stack []int32
	for i := range spans {
		s := &spans[i]
		s.parent = -1
		if s.layer == layerClient || (i > 0 && spans[i-1].user != s.user) {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && s.user >= 0 {
			s.parent = stack[len(stack)-1]
			p := &spans[s.parent]
			if s.seq < 0 {
				s.seq = p.seq
			}
			if s.layer == layerCloudServer {
				s.op = p.op
			}
		}
		stack = append(stack, int32(i))
	}
}

// selfTimes returns, for spans with parents assigned, each span's duration
// minus the part of it its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] += s.dur()
		if s.parent >= 0 {
			end := s.end
			if pe := spans[s.parent].end; pe < end {
				end = pe
			}
			self[s.parent] -= end - s.start
		}
	}
	return self
}

type spanKey struct {
	layer   layer
	op, aux uint8
}

func (k spanKey) String() string {
	s := layerNames[k.layer] + " " + opNames[k.op]
	if k.aux != dialectNone {
		s += " (" + dialectNames[k.aux] + ")"
	}
	return s
}

// durations collects one group's span totals and self times, in µs.
type durations struct{ total, self []float64 }

func (d *durations) add(total, self int64) {
	d.total = append(d.total, float64(total)/1e3)
	d.self = append(d.self, float64(self)/1e3)
}

// routeBudget is one console route's per-request view: what the client
// saw, and how much of it each layer kept for itself.
type routeBudget struct {
	client []float64 // µs
	self   [numLayers][]float64
}

// analysis is what a traced console run reduces to.
type analysis struct {
	spans, orphans int
	byKey          map[spanKey]*durations
	byLayer        [numLayers]durations
	routes         [numRoutes]routeBudget
}

// analyse assigns parents, computes self times, and groups them by
// layer/op and by the client request each span belongs to. Spans are left
// in file order (see writeTrace).
func analyse(spans []span) *analysis {
	assignParents(spans)
	self := selfTimes(spans)
	a := &analysis{spans: len(spans), byKey: map[spanKey]*durations{}}
	root := make([]int32, len(spans))
	// perRoot[r][l] sums layer l's self time inside client request r.
	perRoot := map[int32]*[numLayers]int64{}
	for i := range spans {
		s := &spans[i]
		if s.parent < 0 {
			root[i] = int32(i)
			if s.layer != layerClient {
				a.orphans++
				continue
			}
			perRoot[int32(i)] = &[numLayers]int64{}
		} else {
			root[i] = root[s.parent]
		}
		k := spanKey{s.layer, s.op, s.aux}
		d := a.byKey[k]
		if d == nil {
			d = &durations{}
			a.byKey[k] = d
		}
		d.add(s.dur(), self[i])
		a.byLayer[s.layer].add(s.dur(), self[i])
		if acc := perRoot[root[i]]; acc != nil {
			acc[s.layer] += self[i]
		}
	}
	for r, acc := range perRoot {
		s := &spans[r]
		if s.op >= numRoutes {
			continue
		}
		rb := &a.routes[s.op]
		rb.client = append(rb.client, float64(s.dur())/1e3)
		for l := range acc {
			rb.self[l] = append(rb.self[l], float64(acc[l])/1e3)
		}
	}
	return a
}

// budgetGap is the request-weighted mean, over routes, of how far the sum
// of per-layer median self times lies from the client-observed median, as
// a share of the latter. Medians are compared route by route because a
// median taken across routes that visit different layers adds up to
// nothing in particular.
func (a *analysis) budgetGap() float64 {
	var weighted, n float64
	for r := range a.routes {
		rb := &a.routes[r]
		if len(rb.client) == 0 {
			continue
		}
		client := median(rb.client)
		var sum float64
		for l := range rb.self {
			sum += median(rb.self[l])
		}
		gap := (sum - client) / client
		if gap < 0 {
			gap = -gap
		}
		weighted += gap * float64(len(rb.client))
		n += float64(len(rb.client))
	}
	if n == 0 {
		return 0
	}
	return weighted / n
}

// traceLine is one span in the trace file.
type traceLine struct {
	Req    string `json:"req"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // line number (0-based) of the parent span, -1 for a root
}

func writeLines(path string, n int, line func(i int) traceLine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(line(i)); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes analysed console spans, one JSON object per line, in
// the order assignParents left them, so parent indices are line numbers.
func writeTrace(path string, spans []span, users []string) error {
	return writeLines(path, len(spans), func(i int) traceLine {
		s := &spans[i]
		req := "-"
		if s.user >= 0 && int(s.user) < len(users) {
			req = fmt.Sprintf("%s-%d", users[s.user], s.seq)
		}
		op := opNames[s.op]
		if s.aux != dialectNone {
			op = dialectNames[s.aux] + "." + op
		}
		return traceLine{Req: req, Layer: layerNames[s.layer], Op: op,
			Start: s.start, End: s.end, Parent: int(s.parent)}
	})
}

// flatSpan is a span of the kernel and sweep workloads, which have no
// request tree: one span per lockstep window, chunk or scenario run.
type flatSpan struct {
	req, layer, op string
	start, end     int64
}

func writeFlatTrace(path string, spans []flatSpan) error {
	return writeLines(path, len(spans), func(i int) traceLine {
		s := &spans[i]
		return traceLine{Req: s.req, Layer: s.layer, Op: s.op, Start: s.start, End: s.end, Parent: -1}
	})
}
