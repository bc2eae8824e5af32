package cloudapi

// The usage delta plane: Local and Remote must return identical
// UsageDeltas for identical clouds (including error text for a bad rev),
// the Server must coalesce same-rev reads, and the pprof plane must stay
// behind the operator gate. FuzzUsagePollerMatchesFullSample holds the
// delta-maintained snapshots to the full sample.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// bothDeltas runs one UsageSince through each backend and requires
// identical results.
func bothDeltas(t *testing.T, rig *parityRig, since int64) UsageDelta {
	t.Helper()
	return both(t, "UsageSince",
		func() (UsageDelta, error) { return rig.local.UsageSince(context.Background(), since) },
		func() (UsageDelta, error) { return rig.remote.UsageSince(context.Background(), since) })
}

func TestUsageDeltaParity(t *testing.T) {
	for _, stack := range []string{"openstack", "eucalyptus"} {
		t.Run(stack, func(t *testing.T) {
			rig := newParityRig(t, stack)

			// Fresh caller: Reset snapshot, empty cloud.
			d := bothDeltas(t, rig, 0)
			if !d.Reset || len(d.Changed) != 0 {
				t.Fatalf("UsageSince(0) on empty cloud = %+v", d)
			}

			// Churn, then only the churn comes back.
			a, err := rig.local.Launch("alice", "a1", "m1.small", "")
			if err != nil {
				t.Fatal(err)
			}
			d = bothDeltas(t, rig, 0)
			if !d.Reset || d.Changed["alice"].Instances != 1 {
				t.Fatalf("post-launch UsageSince(0) = %+v", d)
			}
			rev := d.Rev

			// Quiescent: the delta is empty through both backends.
			d = bothDeltas(t, rig, rev)
			if d.Reset || len(d.Changed) != 0 || len(d.Removed) != 0 {
				t.Fatalf("quiescent delta = %+v", d)
			}

			// Terminating alice's last instance removes her, through both.
			if err := rig.remote.Terminate("alice", a.ID); err != nil {
				t.Fatal(err)
			}
			d = bothDeltas(t, rig, rev)
			if !reflect.DeepEqual(d.Removed, []string{"alice"}) || len(d.Changed) != 0 {
				t.Fatalf("delta after alice drains = %+v, want Removed=[alice]", d)
			}

			// Rev reset: a caller ahead of the cloud gets a full resync.
			d = bothDeltas(t, rig, d.Rev+10_000)
			if !d.Reset {
				t.Fatalf("ahead-of-rev delta = %+v, want Reset", d)
			}

			// A bad rev errors identically through both backends (the wire
			// side is a 400 whose body carries Local's error text).
			_, errL := rig.local.UsageSince(context.Background(), -1)
			_, errR := rig.remote.UsageSince(context.Background(), -1)
			if errL == nil || errR == nil || errL.Error() != errR.Error() {
				t.Fatalf("bad-rev errors diverged: local=%v remote=%v", errL, errR)
			}
		})
	}
}

// TestUsagePlaneWire pins the raw wire contract: a non-integer since is a
// 400, a negative since is a 400 carrying Local's error text, and
// same-rev reads of one since, however it is spelled, coalesce onto one
// computed snapshot.
func TestUsagePlaneWire(t *testing.T) {
	engineRig := newParityRig(t, "openstack")
	srv := NewServer(engineRig.cloud)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if code, body := get("/cloudapi/usage?since=banana"); code != http.StatusBadRequest ||
		!strings.Contains(body, `bad usage since`) {
		t.Fatalf("non-integer since: %d %s", code, body)
	}
	if code, body := get("/cloudapi/usage?since=-3"); code != http.StatusBadRequest ||
		!strings.Contains(body, "cloudapi: bad usage since -3") {
		t.Fatalf("negative since: %d %s", code, body)
	}

	// Coalescing: the same since at the same rev is answered from cache
	// with byte-identical bodies; churn invalidates it.
	_, first := get("/cloudapi/usage?since=0")
	hits0 := srv.UsageCacheHits.Load()
	_, second := get("/cloudapi/usage?since=0")
	if first != second {
		t.Fatalf("coalesced bodies diverged:\n%s\n%s", first, second)
	}
	if srv.UsageCacheHits.Load() != hits0+1 {
		t.Fatalf("second same-rev read missed the cache (hits %d → %d)", hits0, srv.UsageCacheHits.Load())
	}
	// The full snapshot coalesces too, under its own key.
	_, _ = get("/cloudapi/usage")
	h := srv.UsageCacheHits.Load()
	_, _ = get("/cloudapi/usage")
	if srv.UsageCacheHits.Load() != h+1 {
		t.Fatal("full-snapshot read did not coalesce")
	}

	// The cache is keyed by the parsed since: 5, 05 and +5 are one
	// request and cost one compute.
	_, five := get("/cloudapi/usage?since=5")
	h = srv.UsageCacheHits.Load()
	for _, spelling := range []string{"05", "%2B5"} {
		if _, body := get("/cloudapi/usage?since=" + spelling); body != five {
			t.Fatalf("since=%s answered %s, since=5 %s", spelling, body, five)
		}
	}
	if got := srv.UsageCacheHits.Load(); got != h+2 {
		t.Fatalf("05 and +5 after 5 hit the cache %d times, want 2", got-h)
	}

	if _, err := engineRig.cloud.Launch("alice", "a1", "m1.small", ""); err != nil {
		t.Fatal(err)
	}
	hBefore := srv.UsageCacheHits.Load()
	_, fresh := get("/cloudapi/usage?since=0")
	if srv.UsageCacheHits.Load() != hBefore {
		t.Fatal("post-churn read was served from the stale cache")
	}
	var d UsageDelta
	if err := json.Unmarshal([]byte(fresh), &d); err != nil {
		t.Fatal(err)
	}
	if d.Changed["alice"].Instances != 1 {
		t.Fatalf("post-churn delta = %+v", d)
	}
}

// TestPprofGate pins the profiling plane's auth: absent without a
// configured secret, 403 without the header, served with it — identically
// on a cloud server and on tukey-server (which shares ServePprof).
func TestPprofGate(t *testing.T) {
	rig := newParityRig(t, "openstack")

	// newParityRig configures no secret: the plane does not exist.
	open := httptest.NewServer(NewServer(rig.cloud))
	t.Cleanup(open.Close)
	resp, err := http.Get(open.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without secret = %d, want 404", resp.StatusCode)
	}

	gatedSrv := NewServer(rig.cloud)
	gatedSrv.OperatorSecret = "s3cret"
	gated := httptest.NewServer(gatedSrv)
	t.Cleanup(gated.Close)

	resp, err = http.Get(gated.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated pprof = %d, want 403", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, gated.URL+"/debug/pprof/", nil)
	req.Header.Set("X-OSDC-Operator", "wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong-secret pprof = %d, want 403", resp.StatusCode)
	}

	req.Header.Set("X-OSDC-Operator", "s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("authenticated pprof = %d (%d bytes)", resp.StatusCode, len(body))
	}
}
