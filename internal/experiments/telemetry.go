package experiments

// The telemetry-stream scenario pins the federation-wide telemetry plane
// end to end — and proves the /console/stream SSE feed is a deterministic
// function of the seed. The trick is that nothing here runs on a wall
// clock: the streamer frames deltas off the simulation's virtual clock,
// the cross-site collector is driven synchronously inside the streamer's
// source (one scrape sweep per frame, no per-poll wall deadline), and
// every console request lands between RunFor quanta while the engine is
// parked. The only wall-dependent series the plane produces — console
// request latency histograms — are filtered out of the stream by name, so
// the full SSE transcript (ids, virtual timestamps, changed-series maps)
// is byte-identical across runs and lives in the golden file verbatim.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"

	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

const telemetryStreamDesc = "federation telemetry plane: /metrics on every member, one collector sweep per frame, and a byte-identical /console/stream SSE transcript"

// telemetryStreamPeriod is the stream's frame cadence in simulated
// seconds: two frames per one-minute phase quantum.
const telemetryStreamPeriod = sim.Duration(30)

// telemetryQuantum is one phase advance: a simulated minute, so the
// per-minute billing sweep fires inside every phase.
const telemetryQuantum = sim.Duration(1 * sim.Minute)

// TelemetryStream stands up the single-process federation with a gated
// /metrics on each cloud server, aggregates them through a collector into
// the console registry, and drives /console/stream through five phases of
// console traffic — asserting along the way and returning the complete
// SSE transcript as the table.
func TelemetryStream(seed uint64) (scenario.Result, error) {
	// Per-cloud servers carry the metrics plane gated like every other
	// operator surface; the collector scrapes them as named members. No
	// wall driver anywhere (speedup 0): the engine advances only in RunFor
	// quanta below, and StartConsole leaves it shared because handlers and
	// stream ticks still touch it from several goroutines.
	const secret = "telemetry-scenario"
	d, err := core.StartConsole(core.ConsoleConfig{Seed: seed, Scale: 8, OperatorSecret: secret, Serve: true})
	if err != nil {
		return scenario.Result{}, err
	}
	defer d.Close()
	f, console := d.Fed, d.Console

	reg := telemetry.NewRegistry()
	f.RegisterTelemetry(reg)
	console.RegisterMetrics(reg)

	// The collector never Start()s: one synchronous Round per stream frame
	// instead, with the zero deadline (wait forever) — scrape completion
	// is ordered with the frame, not raced against a wall timer.
	col := telemetry.NewCollector(secret, nil, d.Members...)
	col.RegisterMetrics(reg)

	stream := telemetry.NewStreamer(func() map[string]float64 {
		col.Round()
		snap := reg.Snapshot()
		for k, v := range col.Snapshot() {
			snap[k] = v
		}
		return snap
	})
	// Console latency histograms are the plane's one wall-clock family;
	// everything else is counts and virtual clocks.
	stream.SetSelect(func(series string) bool {
		return !strings.HasPrefix(series, "osdc_console_request_seconds")
	})
	stream.Start(f.Engine, telemetryStreamPeriod)
	defer stream.Close()
	frames, cancelSub := stream.Subscribe(1024)
	defer cancelSub()
	console.Stream = stream

	const user = "tele"
	if err := d.Enroll(user, "pw-"+user, iaas.Quota{MaxInstances: 4, MaxCores: 16}); err != nil {
		return scenario.Result{}, err
	}

	// Phase 1: idle baseline — the first frame carries the full series
	// set, the second an empty delta.
	f.RunFor(telemetryQuantum)

	// Phase 2: one researcher logs in, parks a VM, and walks the read
	// routes. Requests are sequential and the clock is parked, so the
	// counters land between frames, not during them.
	c := &consoleClient{base: d.URL, user: user, client: d.Client}
	_ = c.login() // a failed login is on record: c.err reports it below
	serverID := c.launch(core.ClusterAdler, user+"-vm")
	for _, path := range []string{"/console/instances", "/console/status", "/console/usage"} {
		drain(c.do("GET", path, "", http.StatusOK))
	}
	if err := c.err(); err != nil {
		return scenario.Result{}, err
	}
	f.RunFor(telemetryQuantum)

	// Phase 3: exercise the per-cloud usage cache — two same-rev reads
	// per cloud, the second always a hit.
	for _, m := range d.Members {
		for i := 0; i < 2; i++ {
			resp, err := d.Client.Get(m.URL + "/cloudapi/usage")
			if err != nil {
				return scenario.Result{}, err
			}
			drain(resp)
		}
	}
	f.RunFor(2 * telemetryQuantum)

	// Phase 4: terminate and wind down.
	drain(c.do("POST", "/console/terminate", fmt.Sprintf(
		`{"cloud":%q,"id":%q}`, core.ClusterAdler, serverID), http.StatusOK))
	if err := c.err(); err != nil {
		return scenario.Result{}, err
	}
	f.RunFor(telemetryQuantum)

	// The gating contract, probed live on a member: 403 without the
	// header, 200 with it, and the body parses as exposition text.
	status, body, err := telemetryScrape(d.Client, d.Members[0].URL, "")
	if err != nil || status != http.StatusForbidden {
		return scenario.Result{}, fmt.Errorf("ungated scrape: status %d, err %v", status, err)
	}
	status, body, err = telemetryScrape(d.Client, d.Members[0].URL, secret)
	if err != nil || status != http.StatusOK {
		return scenario.Result{}, fmt.Errorf("gated scrape: status %d, err %v", status, err)
	}
	parsed, err := telemetry.ParseText(body)
	if err != nil {
		return scenario.Result{}, fmt.Errorf("member exposition does not parse: %w", err)
	}

	stream.Close()
	var transcript bytes.Buffer
	for fr := range frames {
		transcript.Write(fr)
	}

	var cacheHits int64
	for _, srv := range d.Servers {
		cacheHits += srv.UsageCacheHits.Load()
	}
	scrapes := int64(0)
	for _, st := range col.Stats() {
		scrapes += st.Scrapes
		if st.Errors != 0 {
			return scenario.Result{}, fmt.Errorf("member %s: %d scrape errors in a healthy run", st.Member, st.Errors)
		}
	}
	h := fnv.New32a()
	_, _ = h.Write(transcript.Bytes())

	metrics := map[string]float64{
		"stream-events":       float64(strings.Count(transcript.String(), "event: telemetry")),
		"stream-bytes":        float64(transcript.Len()),
		"stream-fnv32":        float64(h.Sum32()),
		"scrape-rounds":       float64(scrapes),
		"usage-cache-hits":    float64(cacheHits),
		"member-series":       float64(len(parsed)),
		"console-series":      float64(len(reg.Snapshot())),
		"launches":            1,
		"stream-frames-empty": float64(strings.Count(transcript.String(), `"changed":{}`)),
	}
	return scenario.Result{Metrics: metrics, Table: transcript.String()}, nil
}

// telemetryScrape GETs a member's /metrics with (or without) the operator
// header, returning status and body.
func telemetryScrape(client *http.Client, base, secret string) (int, []byte, error) {
	req, _ := http.NewRequest("GET", base+"/metrics", nil)
	if secret != "" {
		req.Header.Set(wire.OperatorHeader, secret)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := wire.ReadBody(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	defer body.Release()
	return resp.StatusCode, bytes.Clone(body.Bytes()), nil
}
