package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"osdc/internal/fanout"
	"osdc/internal/wire"
)

// Member is one federation endpoint the Collector scrapes: a name (the
// `member` label on every aggregated series) and the base URL whose
// /metrics the member serves.
type Member struct {
	Name string
	URL  string
}

// MemberStats aggregates the collector's history with one member.
type MemberStats struct {
	Member  string
	Scrapes int64 // successful scrape rounds
	Errors  int64 // unreachable, non-200, unparseable, or cancelled at deadline
	Series  int   // series count in the last successful scrape
}

// Collector is the federation-wide scrape loop: every interval of wall
// time it GETs each member's /metrics (authenticated with the operator
// secret), parses the exposition text, and folds the series into one
// aggregated view with a `member` label injected. Scrapes fan out over a
// bounded worker pool with a per-member deadline, exactly the
// ClockCoordinator's round shape: one hung site may miss a round (and
// count an error), never stall the sweep.
type Collector struct {
	members []Member
	secret  string
	client  *http.Client
	workers int

	mu       sync.Mutex
	deadline time.Duration // per-scrape wall budget; <= 0 waits. Written by Start, read by Round.
	stats    map[string]*MemberStats
	data     map[string]map[string]float64 // member → series → value

	loop *fanout.Loop // Start's; nil for a collector driven by Round
}

// scrapeWorkers bounds the per-round scrape pool.
const scrapeWorkers = 8

// NewCollector builds a collector over the given members. client may be
// nil for a private client with a 10 s timeout. The collector is passive
// until Start (wall-clock loop) or Round (one synchronous sweep — what a
// deterministic scenario drives off the sim clock).
func NewCollector(secret string, client *http.Client, members ...Member) *Collector {
	c := &Collector{
		members: members, secret: secret, client: wire.NewClient(client, 10*time.Second, 0),
		workers: scrapeWorkers,
		stats:   make(map[string]*MemberStats),
		data:    make(map[string]map[string]float64),
	}
	for _, m := range members {
		c.stats[m.Name] = &MemberStats{Member: m.Name}
	}
	return c
}

// Round runs one synchronous scrape sweep over every member. Each member
// settles exactly once per round, here: a scrape still running when the
// fanout deadline passes is cancelled and counted as an error — never one
// error plus one success for the same member in the same round.
func (c *Collector) Round() {
	c.mu.Lock()
	deadline := c.deadline
	c.mu.Unlock()
	scrapes, completed := fanout.Each(context.Background(), c.workers, deadline, len(c.members), func(ctx context.Context, i int) scrape {
		series, err := c.scrapeOne(ctx, c.members[i])
		return scrape{series, err}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.members {
		st := c.stats[m.Name]
		if !completed[i] || scrapes[i].err != nil {
			st.Errors++
			continue
		}
		c.data[m.Name] = scrapes[i].series
		st.Scrapes++
		st.Series = len(scrapes[i].series)
	}
}

// scrape is one member's parsed /metrics, or why it failed.
type scrape struct {
	series map[string]float64
	err    error
}

// Start begins scraping every interval of wall time until Stop, each
// member's scrape cancelled after fanout.RoundDeadline(interval).
func (c *Collector) Start(interval time.Duration) {
	c.mu.Lock()
	c.deadline = fanout.RoundDeadline(interval)
	c.mu.Unlock()
	c.loop = fanout.Every(interval, c.Round)
}

// Stop halts the scrape loop once its round in flight has finished.
// Idempotent; safe on a collector only ever driven by Round.
func (c *Collector) Stop() { c.loop.Stop() }

// scrapeOne GETs one member's /metrics and parses it.
func (c *Collector) scrapeOne(ctx context.Context, m Member) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if c.secret != "" {
		req.Header.Set(wire.OperatorHeader, c.secret)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("telemetry: %s /metrics returned %d", m.Name, resp.StatusCode)
	}
	body, err := wire.ReadBody(resp.Body)
	if err != nil {
		return nil, err
	}
	defer body.Release() // ParseText copies what it keeps
	return ParseText(body.Bytes())
}

// Snapshot returns the aggregated federation view: every member's series
// with a `member` label injected as the first label of each series key
// (our format, our rule: the collector's own output keeps member first so
// one cloud's series group together).
func (c *Collector) Snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64)
	for member, seriesMap := range c.data {
		for key, v := range seriesMap {
			out[injectMember(key, member)] = v
		}
	}
	return out
}

// injectMember rewrites `name{a="b"}` to `name{member="X",a="b"}` (and
// `name` to `name{member="X"}`).
func injectMember(key, member string) string {
	tag := fmt.Sprintf("member=%q", member)
	if i := indexLabelBrace(key); i >= 0 {
		if key[len(key)-1] == '}' && len(key) > i+1 && key[i+1] != '}' {
			return key[:i+1] + tag + "," + key[i+1:]
		}
		return key[:i+1] + tag + "}"
	}
	return key + "{" + tag + "}"
}

// indexLabelBrace finds the label block's opening brace, or -1.
func indexLabelBrace(key string) int {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return i
		}
	}
	return -1
}

// Stats returns a copy of every member's scrape statistics, sorted by
// member name.
func (c *Collector) Stats() []MemberStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStats, 0, len(c.stats))
	for _, s := range c.stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// RegisterMetrics contributes the collector's own health to reg: scrape
// and error counts plus last-seen series per member, so the telemetry
// plane reports on itself through the same pipe.
func (c *Collector) RegisterMetrics(reg *Registry) {
	member := func(pick func(MemberStats) float64) func() []Sample {
		return func() []Sample {
			stats := c.Stats()
			out := make([]Sample, 0, len(stats))
			for _, st := range stats {
				out = append(out, Sample{
					Labels: []Label{{Key: "member", Value: st.Member}},
					Value:  pick(st),
				})
			}
			return out
		}
	}
	reg.SampleFunc("osdc_scrapes_total",
		"Successful /metrics scrapes per federation member.", "counter",
		member(func(s MemberStats) float64 { return float64(s.Scrapes) }))
	reg.SampleFunc("osdc_scrape_errors_total",
		"Failed /metrics scrapes per federation member.", "counter",
		member(func(s MemberStats) float64 { return float64(s.Errors) }))
	reg.SampleFunc("osdc_scrape_series",
		"Series seen in each member's last successful scrape.", "gauge",
		member(func(s MemberStats) float64 { return float64(s.Series) }))
}
