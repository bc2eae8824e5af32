package cloudapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// listWire and deltaWire are the datasets plane's GET forms, without and
// with ?since=.
type listWire struct {
	Site     string              `json:"site"`
	Loc      string              `json:"loc"`
	Replicas []datastore.Replica `json:"replicas"`
}

type deltaWire struct {
	Site string `json:"site"`
	Loc  string `json:"loc"`
	datastore.Delta
}

// FuzzSinceParam sends any string as ?since= to both delta planes,
// /cloudapi/usage and /cloudapi/datasets. A value strconv.ParseInt
// rejects gets a 400 carrying the plane's exact error text; any other
// decodes equal to Local.UsageSince or Store.ListSince of the parsed
// value (error text included); no since at all is the full form. The
// site has churned on both planes, so revs before, at and after it
// answer differently, and a spelling of a since served earlier in the
// same rev comes from the usage cache.
func FuzzSinceParam(f *testing.F) {
	for _, seed := range []string{
		"", "0", "1", "2", "3", "05", "+3", "-0", "-1", "-3", " 3", "3 ", "0x3", "3.0", "1e3",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"banana", "३", "\x00", "%", "&since=1", "3;4", "\xff",
	} {
		f.Add(seed)
	}

	e := sim.NewEngine(11)
	c := iaas.NewCloud(e, "since-site", "openstack", "chicago")
	c.AddRack("r", 4)
	local := NewLocal(c)
	var ids []string
	for _, user := range []string{"alice", "bob", "carol"} {
		inst, err := local.Launch(user, user+"-1", "m1.small", "")
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}
	if err := local.Terminate("bob", ids[1]); err != nil {
		f.Fatal(err)
	}
	store := datastore.NewStore("since-site", "chicago", datasetsVolume(f, e, "svol", 1<<40))
	for _, name := range []string{"a", "b", "c"} {
		if err := store.Put(context.Background(), datastore.Replica{Dataset: name, SizeBytes: 1 << 20, Version: 1}); err != nil {
			f.Fatal(err)
		}
	}
	if err := store.Delete(context.Background(), "b"); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(c)
	srv.Datasets = store

	get := func(t *testing.T, route, raw string) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route+"?since="+url.QueryEscape(raw), nil))
		return rec.Code, rec.Body.Bytes()
	}
	// answers wants the status code, then decodes body and want's own
	// JSON form into two fresh values from into and compares them, so an
	// empty map and an omitted one agree.
	answers := func(t *testing.T, what string, code, wantCode int, body []byte, want any, into func() any) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("%s: status %d, want %d (body %s)", what, code, wantCode, body)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := into(), into()
		if err := json.Unmarshal(body, got); err != nil {
			t.Fatalf("%s: undecodable body %q: %v", what, body, err)
		}
		if err := json.Unmarshal(wantJSON, exp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s:\n got  %s\n want %s", what, body, wantJSON)
		}
	}
	errorBody := func(msg string) map[string]string { return map[string]string{"error": msg} }
	newErr := func() any { return new(map[string]string) }

	f.Fuzz(func(t *testing.T, raw string) {
		usageCode, usageBody := get(t, "/cloudapi/usage", raw)
		dataCode, dataBody := get(t, "/cloudapi/datasets", raw)
		if raw == "" {
			u, _ := local.Usage()
			snap, _ := store.ListSince(context.Background(), 0)
			reps := append([]datastore.Replica{}, snap.Changed...) // the route lists [] when empty
			answers(t, "usage", usageCode, http.StatusOK, usageBody, u, func() any { return new(Usage) })
			answers(t, "datasets", dataCode, http.StatusOK, dataBody, listWire{store.Name(), store.Loc(), reps}, func() any { return new(listWire) })
			return
		}
		since, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			answers(t, "usage", usageCode, http.StatusBadRequest, usageBody, errorBody("cloudapi: bad usage since "+strconv.Quote(raw)), newErr)
			answers(t, "datasets", dataCode, http.StatusBadRequest, dataBody, errorBody("datastore: bad since "+strconv.Quote(raw)), newErr)
			return
		}
		if d, err := local.UsageSince(context.Background(), since); err != nil {
			answers(t, "usage", usageCode, http.StatusBadRequest, usageBody, errorBody(err.Error()), newErr)
		} else {
			answers(t, "usage", usageCode, http.StatusOK, usageBody, d, func() any { return new(UsageDelta) })
		}
		d, _ := store.ListSince(context.Background(), since)
		answers(t, "datasets", dataCode, http.StatusOK, dataBody, deltaWire{store.Name(), store.Loc(), d}, func() any { return new(deltaWire) })
	})
}
