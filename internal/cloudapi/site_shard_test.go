package cloudapi

import (
	"testing"
	"time"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// TestShardedSiteFollowMode stands a site up on a 4-shard kernel in
// follow mode and walks the whole loop over the wire: instances launched
// through the Remote get boot timers on their owning shards, pushed clock
// targets advance every shard in lockstep, and the boots complete even
// though none of them live on the anchor engine alone.
func TestShardedSiteFollowMode(t *testing.T) {
	set := sim.NewShardSet(9, 4)
	e := set.Anchor()
	site, err := StartSiteWithOptions(e, testCloud(e, "shard-test", "openstack"),
		SiteOptions{Clock: ClockFollow, Tick: time.Millisecond, Set: set})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	if site.Set != set {
		t.Fatal("site does not expose its shard set")
	}
	r := site.RemoteWithClient(nil)

	var ids []string
	for _, user := range []string{"alice", "bob", "carol", "dave"} {
		inst, err := r.Launch(user, "vm", "m1.small", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}

	// Advance past the 90 s boot delay; the follower must carry every
	// shard (not just the anchor) to the target.
	if err := r.ClockSync(120); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool { return set.Now() >= 120 },
		"sharded follower never reached the pushed target")
	if set.Skew() != 0 {
		t.Fatalf("cross-shard skew %v at target, want 0", set.Skew())
	}
	for _, id := range ids {
		inst, ok := site.Cloud.Instance(id)
		if !ok {
			t.Fatalf("instance %s vanished", id)
		}
		if inst.State != iaas.StateActive {
			t.Fatalf("instance %s state %s after boot window, want ACTIVE", id, inst.State)
		}
	}
}

// TestShardedSiteAnchorMismatch: passing a set whose anchor is not the
// site engine is a wiring bug and must be rejected.
func TestShardedSiteAnchorMismatch(t *testing.T) {
	set := sim.NewShardSet(9, 2)
	other := sim.NewEngine(10)
	_, err := StartSiteWithOptions(other, testCloud(other, "shard-mismatch", "openstack"),
		SiteOptions{Set: set})
	if err == nil {
		t.Fatal("mismatched shard set accepted")
	}
}
