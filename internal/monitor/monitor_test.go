package monitor

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

func TestCheckThresholds(t *testing.T) {
	v := 0.0
	c := Check{Name: "disk", Plugin: func() (float64, error) { return v, nil }, Warn: 80, Crit: 95}
	cases := []struct {
		val  float64
		want State
	}{{10, StateOK}, {80, StateWarning}, {94.9, StateWarning}, {95, StateCritical}, {200, StateCritical}}
	for _, tc := range cases {
		v = tc.val
		if st, _ := c.Evaluate(); st != tc.want {
			t.Fatalf("value %v -> %v, want %v", tc.val, st, tc.want)
		}
	}
}

func TestCheckPluginErrorIsUnknown(t *testing.T) {
	c := Check{Name: "x", Plugin: func() (float64, error) { return 0, errors.New("nope") }}
	if st, _ := c.Evaluate(); st != StateUnknown {
		t.Fatalf("state = %v, want UNKNOWN", st)
	}
}

func TestAgentRunsNamedChecks(t *testing.T) {
	a := NewAgent("gluster01")
	a.Register(Check{Name: "load", Plugin: func() (float64, error) { return 1.5, nil }, Warn: 8, Crit: 16})
	st, v, err := a.RunCheck("load")
	if err != nil || st != StateOK || v != 1.5 {
		t.Fatalf("RunCheck = %v %v %v", st, v, err)
	}
	if _, _, err := a.RunCheck("missing"); err == nil {
		t.Fatal("missing check must error")
	}
}

func TestMasterAlertsOnTransitionOnly(t *testing.T) {
	e := sim.NewEngine(9)
	m := NewMaster(e, 60)
	diskUse := 50.0
	agent := NewAgent("node1")
	agent.Register(Check{Name: "disk", Plugin: func() (float64, error) { return diskUse, nil }, Warn: 80, Crit: 95})
	m.AddAgent(agent)

	e.RunFor(300) // 5 polls, all OK
	if notified := m.Alerts(); len(notified) != 0 {
		t.Fatalf("alerts while OK: %d", len(notified))
	}
	diskUse = 85
	e.RunFor(180) // crosses into WARNING once
	if notified := m.Alerts(); len(notified) != 1 || notified[0].State != StateWarning {
		t.Fatalf("alerts = %+v, want single WARNING", notified)
	}
	diskUse = 97
	e.RunFor(120)
	if notified := m.Alerts(); len(notified) != 2 || notified[1].State != StateCritical {
		t.Fatalf("no escalation to CRITICAL: %+v", notified)
	}
	// Staying critical does not re-alert.
	e.RunFor(600)
	if notified := m.Alerts(); len(notified) != 2 {
		t.Fatalf("re-alerted on steady state: %d", len(notified))
	}
	if m.StateOf("node1", "disk") != StateCritical {
		t.Fatal("StateOf wrong")
	}
}

func TestMasterRecoveryThenReAlert(t *testing.T) {
	e := sim.NewEngine(9)
	m := NewMaster(e, 60)
	bad := false
	agent := NewAgent("n")
	agent.Register(Check{Name: "svc", Plugin: func() (float64, error) {
		if bad {
			return 1, nil
		}
		return 0, nil
	}, Warn: 1, Crit: 2})
	m.AddAgent(agent)
	bad = true
	e.RunFor(90)
	bad = false
	e.RunFor(90) // recovers (no alert for OK)
	bad = true
	e.RunFor(90) // fails again -> second alert
	if notified := m.Alerts(); len(notified) != 2 {
		t.Fatalf("alerts = %d, want 2 (re-alert after recovery)", len(notified))
	}
}

func TestUsageMonitorPublishesSnapshot(t *testing.T) {
	e := sim.NewEngine(9)
	c := iaas.NewCloud(e, "adler", "openstack", "chicago")
	c.AddRack("r", 4)
	c.SetQuota("u", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	if _, err := c.Launch("u", "vm", "m1.large", ""); err != nil {
		t.Fatal(err)
	}
	um := NewUsageMonitor(e, []cloudapi.CloudAPI{cloudapi.NewLocal(c)}, 300)
	e.RunFor(301)
	status := um.PublicStatus()
	if len(status) != 1 {
		t.Fatalf("status entries = %d", len(status))
	}
	s := status[0]
	if s.Cloud != "adler" || s.RunningVMs != 1 || s.UsedCores != 4 || s.TotalCores != 32 || s.ActiveUsers != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	um.Stop()
}

// hungSite starts a site that accepts every request and never answers;
// each request its client cancels is signalled on the returned channel.
func hungSite(t *testing.T) (url string, cancelled <-chan struct{}) {
	ch := make(chan struct{}, 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		select {
		case ch <- struct{}{}:
		default:
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL, ch
}

// TestAbandonedSampleSurfacesPerCloud: a site that never answers lands in
// SampleErrorsByCloud, its requests cancelled at the sample deadline,
// while the healthy cloud's snapshot still publishes.
func TestAbandonedSampleSurfacesPerCloud(t *testing.T) {
	e := sim.NewEngine(9)
	c := iaas.NewCloud(e, "adler", "openstack", "chicago")
	c.AddRack("r", 4)
	url, cancelled := hungSite(t)

	um := NewUsageMonitor(e, []cloudapi.CloudAPI{cloudapi.NewLocal(c), cloudapi.NewRemote("hung-site", "openstack", url, nil)}, 300)
	um.deadline = 5 * time.Millisecond
	e.RunFor(901)
	um.Stop()

	per := um.SampleErrorsByCloud()
	if per["adler"] != 0 {
		t.Fatalf("healthy cloud charged %d sample errors", per["adler"])
	}
	if per["hung-site"] < 2 {
		t.Fatalf("hung-site cancelled samples = %d, want ~3", per["hung-site"])
	}
	status := um.PublicStatus()
	if len(status) != 1 || status[0].Cloud != "adler" {
		t.Fatalf("healthy snapshot missing: %+v", status)
	}
	select {
	case <-cancelled:
	case <-time.After(cloudapi.PollDeadline):
		t.Fatal("the hung site never saw a sample's request cancelled")
	}
}
