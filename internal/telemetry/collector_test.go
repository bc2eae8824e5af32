package telemetry

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// memberServer stands up one fake federation member: a registry behind a
// gated /metrics, exactly the surface every binary exposes.
func memberServer(t *testing.T, secret string, reg *Registry) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		ServeMetrics(secret, reg, w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCollectorAggregatesMembers(t *testing.T) {
	const secret = "op-secret"
	regA := NewRegistry()
	regA.Counter("osdc_things_total", "things").Add(5)
	regB := NewRegistry()
	regB.Counter("osdc_things_total", "things").Add(9)
	regB.GaugeFunc("osdc_depth", "depth", func() float64 { return 3 }, Label{"shard", "0"})
	a := memberServer(t, secret, regA)
	b := memberServer(t, secret, regB)

	c := NewCollector(secret, nil,
		Member{Name: "alpha", URL: a.URL},
		Member{Name: "beta", URL: b.URL})
	c.Round()

	snap := c.Snapshot()
	if snap[`osdc_things_total{member="alpha"}`] != 5 {
		t.Errorf("alpha series missing or wrong: %v", snap)
	}
	if snap[`osdc_things_total{member="beta"}`] != 9 {
		t.Errorf("beta series missing or wrong: %v", snap)
	}
	if snap[`osdc_depth{member="beta",shard="0"}`] != 3 {
		t.Errorf("labelled beta series missing or wrong: %v", snap)
	}
	for _, st := range c.Stats() {
		if st.Scrapes != 1 || st.Errors != 0 {
			t.Errorf("member %s stats = %+v, want 1 scrape 0 errors", st.Member, st)
		}
		if st.Series == 0 {
			t.Errorf("member %s reported no series", st.Member)
		}
	}
}

// TestCollectorCountsErrors pins the failure accounting: a dead member
// and a member refusing the secret both count errors, neither stalls the
// round, and the healthy member's data still lands.
func TestCollectorCountsErrors(t *testing.T) {
	const secret = "op-secret"
	reg := NewRegistry()
	reg.Counter("osdc_ok_total", "ok").Inc()
	healthy := memberServer(t, secret, reg)
	dead := memberServer(t, secret, NewRegistry())
	dead.Close()
	wrongSecret := memberServer(t, "other-secret", NewRegistry())

	c := NewCollector(secret, nil,
		Member{Name: "up", URL: healthy.URL},
		Member{Name: "down", URL: dead.URL},
		Member{Name: "denied", URL: wrongSecret.URL})
	c.Round()
	c.Round()

	stats := map[string]MemberStats{}
	for _, st := range c.Stats() {
		stats[st.Member] = st
	}
	if st := stats["up"]; st.Scrapes != 2 || st.Errors != 0 {
		t.Errorf("up = %+v", st)
	}
	if st := stats["down"]; st.Errors != 2 {
		t.Errorf("down = %+v, want 2 errors", st)
	}
	if st := stats["denied"]; st.Errors != 2 {
		t.Errorf("denied = %+v, want 2 errors (403 is an error)", st)
	}
	if snap := c.Snapshot(); snap[`osdc_ok_total{member="up"}`] != 1 {
		t.Errorf("healthy member data missing: %v", snap)
	}
}

func TestInjectMember(t *testing.T) {
	cases := map[string]string{
		"plain":            `plain{member="m"}`,
		`x{a="b"}`:         `x{member="m",a="b"}`,
		`x{a="b",c="d"}`:   `x{member="m",a="b",c="d"}`,
		`h_bucket{le="1"}`: `h_bucket{member="m",le="1"}`,
	}
	for in, want := range cases {
		if got := injectMember(in, "m"); got != want {
			t.Errorf("injectMember(%q) = %q, want %q", in, got, want)
		}
	}
}
