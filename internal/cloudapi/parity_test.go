package cloudapi

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// parityRig is one seeded cloud observed through both backends at once:
// Local holds the pointer, Remote goes over a live HTTP server speaking
// the cloud's native dialect.
type parityRig struct {
	engine *sim.Engine
	cloud  *iaas.Cloud
	local  *Local
	remote *Remote
}

func newParityRig(t *testing.T, stack string) *parityRig {
	t.Helper()
	e := sim.NewEngine(5)
	c := iaas.NewCloud(e, "parity-"+stack, stack, "chicago")
	c.AddRack("r", 4)
	c.RegisterImage(iaas.Image{ID: "img-pub", Name: "ubuntu", Public: true})
	c.RegisterImage(iaas.Image{ID: "img-alice", Name: "alice-private", Owner: "alice"})
	c.RegisterImage(iaas.Image{ID: "img-bob", Name: "bob-private", Owner: "bob"})
	c.SetQuota("alice", iaas.Quota{MaxInstances: 10, MaxCores: 100})

	srv := httptest.NewServer(NewServer(c))
	t.Cleanup(srv.Close)
	return &parityRig{
		engine: e, cloud: c,
		local:  NewLocal(c),
		remote: NewRemote(c.Name, stack, srv.URL, nil),
	}
}

// both runs one read through each backend and requires identical results.
func both[T any](t *testing.T, what string, viaLocal, viaRemote func() (T, error)) T {
	t.Helper()
	l, errL := viaLocal()
	r, errR := viaRemote()
	if errL != nil || errR != nil {
		t.Fatalf("%s: local err=%v remote err=%v", what, errL, errR)
	}
	if !reflect.DeepEqual(l, r) {
		t.Fatalf("%s diverged:\nlocal : %+v\nremote: %+v", what, l, r)
	}
	return l
}

// TestLocalRemoteParity drives every CloudAPI method through both backends
// against the same seeded cloud, once per native dialect, and requires
// identical observable results — the contract that makes the remote
// topology a deployment choice instead of a behavior change. Under -race
// it is also a concurrency check: the Remote path crosses real HTTP
// server goroutines on every call.
func TestLocalRemoteParity(t *testing.T) {
	for _, stack := range []string{"openstack", "eucalyptus"} {
		t.Run(stack, func(t *testing.T) {
			rig := newParityRig(t, stack)
			local, remote := rig.local, rig.remote

			if local.Name() != remote.Name() || local.Stack() != remote.Stack() {
				t.Fatalf("identity diverged: %s/%s vs %s/%s",
					local.Name(), local.Stack(), remote.Name(), remote.Stack())
			}

			both(t, "Flavors",
				func() ([]iaas.Flavor, error) { return local.Flavors() },
				func() ([]iaas.Flavor, error) { return remote.Flavors() })
			images := both(t, "Images(alice)",
				func() ([]Image, error) { return local.Images("alice") },
				func() ([]Image, error) { return remote.Images("alice") })
			if len(images) != 2 {
				t.Fatalf("alice sees %d images, want public + her own: %+v", len(images), images)
			}

			// One launch through each backend; each result must be visible
			// identically through the other.
			viaRemote, err := remote.Launch("alice", "vm-r", "m1.small", "img-pub")
			if err != nil {
				t.Fatal(err)
			}
			viaLocal, err := local.Launch("alice", "vm-l", "m1.medium", "")
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range []Instance{viaRemote, viaLocal} {
				if inst.Status != string(iaas.StateBuild) {
					t.Fatalf("freshly launched %s status = %q, want BUILD", inst.ID, inst.Status)
				}
				both(t, "Instance("+inst.ID+")",
					func() (Instance, error) { return local.Instance(inst.ID) },
					func() (Instance, error) { return remote.Instance(inst.ID) })
			}
			list := both(t, "Instances(alice)",
				func() ([]Instance, error) { return local.Instances("alice") },
				func() ([]Instance, error) { return remote.Instances("alice") })
			if len(list) != 2 {
				t.Fatalf("alice lists %d instances, want 2", len(list))
			}
			both(t, "UsageSince(0)",
				func() (UsageDelta, error) { return local.UsageSince(0) },
				func() (UsageDelta, error) { return remote.UsageSince(0) })

			// Boot timers fire; ACTIVE must round-trip through both wire
			// dialects (EC2 "running" must come back as ACTIVE).
			rig.engine.RunFor(120)
			list = both(t, "Instances(alice) after boot",
				func() ([]Instance, error) { return local.Instances("alice") },
				func() ([]Instance, error) { return remote.Instances("alice") })
			for _, inst := range list {
				if inst.Status != string(iaas.StateActive) {
					t.Fatalf("after boot %s = %q, want ACTIVE", inst.ID, inst.Status)
				}
			}

			// Stop through the native dialect (os-stop / StopInstances):
			// the instance reaches SHUTOFF after the stop delay, both
			// backends observe it identically, and a second Stop is
			// idempotent through either backend.
			stopped, err := local.Launch("alice", "vm-s", "m1.small", "")
			if err != nil {
				t.Fatal(err)
			}
			if err := remote.Stop("alice", stopped.ID); err != nil {
				t.Fatal(err)
			}
			rig.engine.RunFor(120)
			shut := both(t, "Instance(stopped)",
				func() (Instance, error) { return local.Instance(stopped.ID) },
				func() (Instance, error) { return remote.Instance(stopped.ID) })
			if shut.Status != string(iaas.StateShutoff) {
				t.Fatalf("stopped status = %q, want SHUTOFF", shut.Status)
			}
			if err := local.Stop("alice", stopped.ID); err != nil {
				t.Fatalf("second Stop not idempotent: %v", err)
			}
			if err := remote.Stop("alice", "no-such"); err == nil {
				t.Fatal("remote Stop of unknown id succeeded")
			}
			if err := local.Stop("alice", "no-such"); err == nil {
				t.Fatal("local Stop of unknown id succeeded")
			}
			if err := local.Terminate("alice", stopped.ID); err != nil {
				t.Fatal(err)
			}

			// Quota set through the Remote operator plane binds the cloud
			// both backends see, and rejections keep their error class
			// across the wire.
			if err := remote.SetQuota("alice", iaas.Quota{MaxInstances: 2, MaxCores: 100}); err != nil {
				t.Fatal(err)
			}
			_, errL := local.Launch("alice", "over", "m1.small", "")
			_, errR := remote.Launch("alice", "over", "m1.small", "")
			var qL, qR iaas.ErrQuota
			if !errors.As(errL, &qL) || !errors.As(errR, &qR) {
				t.Fatalf("quota rejection classes diverged: local=%v remote=%v", errL, errR)
			}

			// Terminate one through each backend; the listing agrees.
			if err := remote.Terminate("alice", viaLocal.ID); err != nil {
				t.Fatal(err)
			}
			if err := local.Terminate("alice", viaRemote.ID); err != nil {
				t.Fatal(err)
			}
			list = both(t, "Instances(alice) after terminate",
				func() ([]Instance, error) { return local.Instances("alice") },
				func() ([]Instance, error) { return remote.Instances("alice") })
			if len(list) != 0 {
				t.Fatalf("instances after terminate = %+v", list)
			}
			terminated := both(t, "Instance(terminated)",
				func() (Instance, error) { return local.Instance(viaRemote.ID) },
				func() (Instance, error) { return remote.Instance(viaRemote.ID) })
			if terminated.Status != string(iaas.StateTerminated) {
				t.Fatalf("terminated status = %q", terminated.Status)
			}

			// Unknown IDs miss identically.
			if _, err := local.Instance("no-such"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("local miss = %v", err)
			}
			if _, err := remote.Instance("no-such"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("remote miss = %v", err)
			}
		})
	}
}

// TestParityUnderConcurrency hammers one cloud through both backends from
// many goroutines — the -race companion to the sequential parity walk.
func TestParityUnderConcurrency(t *testing.T) {
	rig := newParityRig(t, "eucalyptus")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			api := CloudAPI(rig.local)
			if g%2 == 0 {
				api = rig.remote
			}
			const user = "alice" // all goroutines share one tenant
			for i := 0; i < 10; i++ {
				inst, err := api.Launch(user, fmt.Sprintf("c%d-%d", g, i), "m1.small", "")
				if err != nil {
					continue // quota/capacity contention is expected
				}
				if _, err := api.Instances(user); err != nil {
					t.Error(err)
					return
				}
				if _, err := api.UsageSince(0); err != nil {
					t.Error(err)
					return
				}
				if err := api.Terminate(user, inst.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Both backends agree on the final (empty) footprint.
	l, _ := rig.local.Instances("alice")
	r, _ := rig.remote.Instances("alice")
	if !reflect.DeepEqual(l, r) {
		t.Fatalf("post-storm listings diverged:\nlocal : %+v\nremote: %+v", l, r)
	}
}
