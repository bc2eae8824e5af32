package iaas

import (
	"testing"

	"osdc/internal/sim"
)

func testCloud(hosts int) (*sim.Engine, *Cloud) {
	e := sim.NewEngine(5)
	c := NewCloud(e, "adler", "openstack", "chicago-kenwood")
	c.AddRack("r1", hosts)
	return e, c
}

func TestLaunchLifecycle(t *testing.T) {
	e, c := testCloud(2)
	c.SetQuota("alice", Quota{MaxInstances: 10, MaxCores: 64})
	inst, err := c.Launch("alice", "vm1", "m1.large", "")
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != StateBuild {
		t.Fatalf("state = %s, want BUILD", inst.State)
	}
	e.RunFor(120)
	// Launch returned a point-in-time copy; re-fetch to see the boot.
	booted, ok := c.Instance(inst.ID)
	if !ok || booted.State != StateActive {
		t.Fatalf("state after boot = %+v, want ACTIVE", booted)
	}
	if c.UsedCores() != 4 {
		t.Fatalf("used cores = %d, want 4", c.UsedCores())
	}
	e.RunFor(3600)
	if err := c.Terminate("alice", inst.ID); err != nil {
		t.Fatal(err)
	}
	gone, ok := c.Instance(inst.ID)
	if !ok || gone.State != StateTerminated {
		t.Fatalf("instance after terminate = %+v, want TERMINATED", gone)
	}
	if c.UsedCores() != 0 {
		t.Fatalf("cores not released: %d", c.UsedCores())
	}
}

func TestFreeTierQuotaEnforced(t *testing.T) {
	_, c := testCloud(4)
	// Default free tier: 2 instances, 4 cores.
	if _, err := c.Launch("bob", "a", "m1.medium", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("bob", "b", "m1.medium", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("bob", "c", "m1.small", ""); err == nil {
		t.Fatal("third instance must exceed free tier")
	} else if _, ok := err.(ErrQuota); !ok {
		t.Fatalf("got %T, want ErrQuota", err)
	}
}

func TestCoreQuotaSeparateFromInstanceQuota(t *testing.T) {
	_, c := testCloud(4)
	if _, err := c.Launch("eve", "a", "m1.large", ""); err != nil { // 4 cores = whole quota
		t.Fatal(err)
	}
	if _, err := c.Launch("eve", "b", "m1.small", ""); err == nil {
		t.Fatal("core quota not enforced")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	_, c := testCloud(1) // 8 cores total
	c.SetQuota("u", Quota{MaxInstances: 100, MaxCores: 1000})
	for i := 0; i < 2; i++ {
		if _, err := c.Launch("u", "x", "m1.xlarge", ""); err != nil && i == 0 {
			t.Fatal(err)
		}
	}
	_, err := c.Launch("u", "y", "m1.small", "")
	if err == nil {
		t.Fatal("overcommit allowed")
	}
	if _, ok := err.(ErrCapacity); !ok {
		t.Fatalf("got %T, want ErrCapacity", err)
	}
}

func TestSchedulerSpreadsLoad(t *testing.T) {
	_, c := testCloud(4)
	c.SetQuota("u", Quota{MaxInstances: 100, MaxCores: 1000})
	hostsUsed := make(map[string]bool)
	for i := 0; i < 4; i++ {
		inst, err := c.Launch("u", "x", "m1.small", "")
		if err != nil {
			t.Fatal(err)
		}
		hostsUsed[inst.Host] = true
	}
	if len(hostsUsed) != 4 {
		t.Fatalf("4 small VMs used %d hosts, want 4 (spread)", len(hostsUsed))
	}
}

func TestImageVisibility(t *testing.T) {
	_, c := testCloud(1)
	pub := c.RegisterImage(Image{Name: "ubuntu-12.04", Public: true})
	c.RegisterImage(Image{Name: "private-pipeline"})
	if imgs := c.Images(); len(imgs) != 1 || imgs[0] != pub {
		t.Fatalf("listed %v, want the public image alone", imgs)
	}
}

func TestLaunchPrivateImageDenied(t *testing.T) {
	_, c := testCloud(1)
	img := c.RegisterImage(Image{Name: "secret"})
	if _, err := c.Launch("alice", "vm", "m1.small", img.ID); err == nil {
		t.Fatal("alice launched a private image")
	}
}

func TestRunningByUserPollShape(t *testing.T) {
	_, c := testCloud(4)
	c.SetQuota("u1", Quota{MaxInstances: 10, MaxCores: 100})
	if _, err := c.Launch("u1", "a", "m1.large", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("u1", "b", "m1.small", ""); err != nil {
		t.Fatal(err)
	}
	poll := c.RunningByUser()
	if v := poll["u1"]; v[0] != 2 || v[1] != 5 {
		t.Fatalf("poll = %v, want {2 instances, 5 cores}", v)
	}
}
