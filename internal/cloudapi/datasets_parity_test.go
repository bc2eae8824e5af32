package cloudapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"osdc/internal/datastore"
	"osdc/internal/dfs"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
)

// datasetsRig is one site's datasets plane observed through both backends
// at once: twin stores built identically, one driven in-process (the Local
// backend), one behind a live cloudapi.Server over HTTP.
type datasetsRig struct {
	local  *datastore.Store
	remote *datastore.Remote
	url    string // the server behind remote
	// remoteStore is the store behind the wire, for end-state comparison.
	remoteStore *datastore.Store
}

func datasetsVolume(t testing.TB, e *sim.Engine, name string, capacity int64) *dfs.Volume {
	t.Helper()
	bricks := make([]*dfs.Brick, 2)
	for i := range bricks {
		d := simdisk.New(fmt.Sprintf("%s-d%d", name, i), capacity)
		bricks[i] = dfs.NewBrick(fmt.Sprintf("%s-b%d", name, i), d)
	}
	vol, err := dfs.NewVolume(e, 2, dfs.Version33, bricks)
	if err != nil {
		t.Fatal(err)
	}
	return vol
}

func newDatasetsRig(t *testing.T, capacity int64) *datasetsRig {
	t.Helper()
	e := sim.NewEngine(9)
	c := iaas.NewCloud(e, "parity-site", "openstack", "chicago")
	c.AddRack("r", 2)

	// The twin volumes share a name: volume and brick names appear in
	// rejection messages, and the parity contract includes error text.
	localStore := datastore.NewStore("parity-site", "chicago", datasetsVolume(t, e, "vol", capacity))
	remoteStore := datastore.NewStore("parity-site", "chicago", datasetsVolume(t, e, "vol", capacity))

	srv := NewServer(c)
	srv.Datasets = remoteStore
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)

	return &datasetsRig{
		local:       localStore,
		remote:      datastore.NewRemote("parity-site", "chicago", hs.URL, nil),
		url:         hs.URL,
		remoteStore: remoteStore,
	}
}

// bothData runs one operation through each backend and requires identical
// results, including error strings — the Remote reproduces the Local error
// byte for byte off the wire.
func bothData[T any](t *testing.T, what string, viaLocal, viaRemote func() (T, error)) {
	t.Helper()
	l, errL := viaLocal()
	r, errR := viaRemote()
	if (errL == nil) != (errR == nil) {
		t.Fatalf("%s: local err=%v remote err=%v", what, errL, errR)
	}
	if errL != nil && errL.Error() != errR.Error() {
		t.Fatalf("%s error text diverged:\nlocal : %v\nremote: %v", what, errL, errR)
	}
	if errL == nil && !reflect.DeepEqual(l, r) {
		t.Fatalf("%s diverged:\nlocal : %+v\nremote: %+v", what, l, r)
	}
}

// TestDatasetsLocalRemoteParity drives every datastore.API method through
// both backends against twin stores and requires identical observable
// behavior — results, error classes and error text.
func TestDatasetsLocalRemoteParity(t *testing.T) {
	rig := newDatasetsRig(t, 1<<40)
	l, r := datastore.API(rig.local), datastore.API(rig.remote)

	if l.Name() != r.Name() || l.Loc() != r.Loc() {
		t.Fatalf("identity diverged: %s/%s vs %s/%s", l.Name(), l.Loc(), r.Name(), r.Loc())
	}

	// Empty stores agree, including the miss class and text.
	list := func(api datastore.API) func() ([]datastore.Replica, error) {
		return func() ([]datastore.Replica, error) {
			d, err := api.ListSince(context.Background(), 0)
			return d.Changed, err
		}
	}
	bothData(t, "ListSince(0, empty)", list(l), list(r))
	bothData(t, "Get(miss)",
		func() (datastore.Replica, error) { return l.Get(context.Background(), "nope") },
		func() (datastore.Replica, error) { return r.Get(context.Background(), "nope") })
	if _, err := r.Get(context.Background(), "nope"); !errors.Is(err, datastore.ErrNoReplica) {
		t.Fatalf("remote miss lost the ErrNoReplica class: %v", err)
	}

	// Puts: valid, checksum-defaulting, and invalid.
	put := func(api datastore.API, rep datastore.Replica) func() (struct{}, error) {
		return func() (struct{}, error) { return struct{}{}, api.Put(context.Background(), rep) }
	}
	good := datastore.Replica{Dataset: "EO-1 Slice", SizeBytes: 4 << 30, Version: 1}
	bothData(t, "Put(good)", put(l, good), put(r, good))
	bothData(t, "Put(invalid)", put(l, datastore.Replica{Dataset: "", SizeBytes: 1, Version: 1}),
		put(r, datastore.Replica{Dataset: "", SizeBytes: 1, Version: 1}))
	bothData(t, "Put(bad version)", put(l, datastore.Replica{Dataset: "x", SizeBytes: 1}),
		put(r, datastore.Replica{Dataset: "x", SizeBytes: 1}))

	bothData(t, "ListSince(0, one)", list(l), list(r))
	bothData(t, "Get(hit)",
		func() (datastore.Replica, error) { return l.Get(context.Background(), "EO-1 Slice") },
		func() (datastore.Replica, error) { return r.Get(context.Background(), "EO-1 Slice") })

	// Deletes: present then absent.
	del := func(api datastore.API, name string) func() (struct{}, error) {
		return func() (struct{}, error) { return struct{}{}, api.Delete(context.Background(), name) }
	}
	bothData(t, "Delete(hit)", del(l, "EO-1 Slice"), del(r, "EO-1 Slice"))
	bothData(t, "Delete(miss)", del(l, "EO-1 Slice"), del(r, "EO-1 Slice"))
	if err := r.Delete(context.Background(), "EO-1 Slice"); !errors.Is(err, datastore.ErrNoReplica) {
		t.Fatalf("remote delete-miss lost the ErrNoReplica class: %v", err)
	}

	// End state agrees store-to-store.
	ll, _ := rig.local.ListSince(context.Background(), 0)
	rl, _ := rig.remoteStore.ListSince(context.Background(), 0)
	if !reflect.DeepEqual(ll.Changed, rl.Changed) {
		t.Fatalf("end state diverged:\nlocal : %+v\nremote: %+v", ll, rl)
	}
}

// TestDatasetsParityOnFullVolume pins the volume-full behavior across the
// wire: both backends reject with the same error text.
func TestDatasetsParityOnFullVolume(t *testing.T) {
	rig := newDatasetsRig(t, 1<<30) // ~2 GB of replica-2 capacity per store
	big := datastore.Replica{Dataset: "Too Big", SizeBytes: 8 << 30, Version: 1}
	bothData(t, "Put(full)",
		func() (struct{}, error) { return struct{}{}, rig.local.Put(context.Background(), big) },
		func() (struct{}, error) { return struct{}{}, rig.remote.Put(context.Background(), big) })
}

// TestDatasetsParityUnderConcurrency hammers both backends with the same
// concurrent workload; run under -race in CI, it is the datasets-plane
// analogue of TestParityUnderConcurrency.
func TestDatasetsParityUnderConcurrency(t *testing.T) {
	rig := newDatasetsRig(t, 1<<44)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		for _, api := range []datastore.API{rig.local, rig.remote} {
			api := api
			wg.Add(1)
			go func() {
				defer wg.Done()
				name := fmt.Sprintf("set-%d", w)
				for i := 0; i < 40; i++ {
					_ = api.Put(context.Background(), datastore.Replica{Dataset: name, SizeBytes: 1 << 20, Version: 1})
					_, _ = api.Get(context.Background(), name)
					_, _ = api.ListSince(context.Background(), 0)
					_ = api.Delete(context.Background(), name)
				}
			}()
		}
	}
	wg.Wait()
}

// TestOperatorPlaneAuth locks the operator planes down with a shared
// secret: unauthenticated POSTs (clock targets, quotas, dataset replicas)
// get 403, secret-bearing Remotes pass, and GETs stay open.
func TestOperatorPlaneAuth(t *testing.T) {
	e := sim.NewEngine(3)
	c := iaas.NewCloud(e, "auth-site", "openstack", "chicago")
	c.AddRack("r", 2)
	store := datastore.NewStore("auth-site", "chicago", datasetsVolume(t, e, "avol", 1<<40))

	srv := NewServer(c)
	srv.Datasets = store
	follower := sim.StartFollower(e, 0, 0)
	t.Cleanup(follower.Stop)
	srv.Clock = FollowerClock{F: follower}
	srv.OperatorSecret = "hunter2"
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)

	// Unauthenticated writes: 403 on every operator plane.
	for _, probe := range []struct{ method, path, body string }{
		{http.MethodPost, "/cloudapi/clock", `{"target":10}`},
		{http.MethodPost, "/cloudapi/quota", `{"user":"u","max_instances":1,"max_cores":1}`},
		{http.MethodPost, "/cloudapi/datasets/replica", `{"dataset":"d","size_bytes":1,"version":1}`},
		{http.MethodDelete, "/cloudapi/datasets/replica?dataset=d", ""},
	} {
		req, err := http.NewRequest(probe.method, hs.URL+probe.path, strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("unauthenticated %s %s = %d, want 403", probe.method, probe.path, resp.StatusCode)
		}
	}
	if snap, _ := store.ListSince(context.Background(), 0); len(snap.Changed) != 0 || e.Now() != 0 {
		t.Fatal("an unauthenticated write had an effect")
	}

	// Reads stay open: the planes carry no tenant data.
	for _, path := range []string{"/cloudapi/meta", "/cloudapi/clock", "/cloudapi/datasets"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	// Secret-bearing clients pass on both planes.
	cr := NewRemote("auth-site", "openstack", hs.URL, nil)
	cr.SetOperatorSecret("hunter2")
	if err := cr.ClockSync(context.Background(), 10); err != nil {
		t.Fatalf("authenticated clock sync: %v", err)
	}
	if err := cr.SetQuota("u", iaas.Quota{MaxInstances: 2, MaxCores: 2}); err != nil {
		t.Fatalf("authenticated quota: %v", err)
	}
	dr := datastore.NewRemote("auth-site", "chicago", hs.URL, nil)
	dr.SetOperatorSecret("hunter2")
	if err := dr.Put(context.Background(), datastore.Replica{Dataset: "d", SizeBytes: 1 << 20, Version: 1}); err != nil {
		t.Fatalf("authenticated dataset put: %v", err)
	}
	if err := dr.Delete(context.Background(), "d"); err != nil {
		t.Fatalf("authenticated dataset delete: %v", err)
	}

	// A wrong secret is as unauthenticated as none.
	bad := NewRemote("auth-site", "openstack", hs.URL, nil)
	bad.SetOperatorSecret("wrong")
	if err := bad.SetQuota("u", iaas.Quota{}); err == nil {
		t.Fatal("wrong secret passed the quota plane")
	}
}

// TestDatasetsListSinceParity pins the delta route across backends: after
// an identical put/delete history, Local and Remote return bit-identical
// Deltas for a fresh client, an incremental client, a caught-up client and
// a client from the future.
func TestDatasetsListSinceParity(t *testing.T) {
	rig := newDatasetsRig(t, 1<<40)
	l, r := datastore.API(rig.local), datastore.API(rig.remote)

	since := func(api datastore.API, rev int64) func() (datastore.Delta, error) {
		return func() (datastore.Delta, error) { return api.ListSince(context.Background(), rev) }
	}
	bothData(t, "ListSince(0, empty)", since(l, 0), since(r, 0))

	for _, api := range []datastore.API{l, r} {
		for _, rep := range []datastore.Replica{
			{Dataset: "B Set", SizeBytes: 2 << 30, Version: 1},
			{Dataset: "A Set", SizeBytes: 1 << 30, Version: 1},
			{Dataset: "C Set", SizeBytes: 3 << 30, Version: 1},
		} {
			if err := api.Put(context.Background(), rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := api.Put(context.Background(), datastore.Replica{Dataset: "A Set", SizeBytes: 1 << 30, Version: 2}); err != nil {
			t.Fatal(err)
		}
		if err := api.Delete(context.Background(), "B Set"); err != nil {
			t.Fatal(err)
		}
	}
	bothData(t, "ListSince(0)", since(l, 0), since(r, 0))
	bothData(t, "ListSince(3)", since(l, 3), since(r, 3))
	caught, _ := l.ListSince(context.Background(), 0)
	bothData(t, "ListSince(caught-up)", since(l, caught.Rev), since(r, caught.Rev))
	bothData(t, "ListSince(future)", since(l, 9999), since(r, 9999))

	// The delta must actually be a delta: from rev 3, only the replaced
	// A Set and the dead B Set.
	d, err := r.ListSince(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset || len(d.Changed) != 1 || d.Changed[0].Dataset != "A Set" ||
		len(d.Removed) != 1 || d.Removed[0] != "B Set" {
		t.Fatalf("remote delta from rev 3 = %+v", d)
	}
}

// TestDatasetsListSinceBadQuery pins the wire-only error: a non-numeric
// ?since is a 400 with a parseable body, not a silent full listing.
func TestDatasetsListSinceBadQuery(t *testing.T) {
	rig := newDatasetsRig(t, 1<<40)
	resp, err := http.Get(rig.url + "/cloudapi/datasets?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET ?since=bogus = %d, want 400", resp.StatusCode)
	}
}
