package iaas

// Incremental usage accounting: the per-shard per-user counters must
// stay equal to a full instance-walk recount through every lifecycle
// transition, the per-user index must list exactly what the full walk
// lists, and UsageSince must report precisely the churn between two
// revisions — including removing a user whose last instance terminated.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// RunningByUserScan recomputes the usage sample by a full walk over every
// instance record in every bucket: the ground truth RunningByUser's
// per-user counters are recounted against.
func (c *Cloud) RunningByUserScan() map[string][2]int {
	t := c.topo.Load()
	out := make(map[string][2]int)
	for _, sh := range t.sh {
		sh.mu.Lock()
		for _, i := range sh.inst {
			if i.State == StateActive || i.State == StateBuild {
				v := out[i.User]
				v[0]++
				v[1] += i.Flavor.VCPUs
				out[i.User] = v
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// assertCountersMatchScan requires the counter merge and the full-walk
// recount to agree exactly.
func assertCountersMatchScan(t *testing.T, c *Cloud, when string) {
	t.Helper()
	fast, slow := c.RunningByUser(), c.RunningByUserScan()
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("%s: counters diverged from recount:\ncounters: %v\nscan    : %v", when, fast, slow)
	}
}

func TestRunningByUserCountersMatchScan(t *testing.T) {
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			set, c := shardedCloud(k)
			c.SetQuota("alice", Quota{MaxInstances: 64, MaxCores: 64})
			c.SetQuota("bob", Quota{MaxInstances: 64, MaxCores: 64})
			assertCountersMatchScan(t, c, "empty cloud")

			var ids []string
			for i := 0; i < 12; i++ {
				user := "alice"
				if i%3 == 0 {
					user = "bob"
				}
				inst, err := c.Launch(user, fmt.Sprintf("vm%02d", i), "m1.small", "")
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, inst.ID)
			}
			assertCountersMatchScan(t, c, "after launches (BUILD)")

			set.RunFor(120) // boots complete
			assertCountersMatchScan(t, c, "after boot")

			// Stop a few: SHUTOFF leaves the running footprint.
			for _, id := range ids[:4] {
				inst, _ := c.Instance(id)
				if err := c.Stop(inst.User, id); err != nil {
					t.Fatal(err)
				}
			}
			set.RunFor(float64(stopDelay) + 1)
			assertCountersMatchScan(t, c, "after stops")

			// Terminate a mix of SHUTOFF and ACTIVE instances.
			for _, id := range ids[2:8] {
				inst, _ := c.Instance(id)
				if err := c.Terminate(inst.User, id); err != nil {
					t.Fatal(err)
				}
			}
			assertCountersMatchScan(t, c, "after terminates")

			// Drain everything: both maps must go empty, not zero-valued.
			for _, id := range ids {
				inst, _ := c.Instance(id)
				_ = c.Terminate(inst.User, id)
			}
			assertCountersMatchScan(t, c, "after full drain")
			if n := len(c.RunningByUser()); n != 0 {
				t.Fatalf("drained cloud still reports %d users", n)
			}
		})
	}
}

// assertListingIsLiveSet requires every named listing to equal the
// wildcard audit walk filtered to that user minus TERMINATED records.
func assertListingIsLiveSet(t *testing.T, c *Cloud, when string) {
	t.Helper()
	all := c.Instances("")
	for _, user := range []string{"alice", "bob", "nobody"} {
		var want []*Instance
		for _, i := range all {
			if i.User == user && i.State != StateTerminated {
				want = append(want, i)
			}
		}
		if got := c.Instances(user); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Instances(%q) diverged from the live set of the full walk:\nindex: %+v\nwalk : %+v", when, user, got, want)
		}
	}
}

// TestInstancesByUserIndex pins the listing contract: a named listing is
// the user's instances that still exist (SHUTOFF included, TERMINATED
// not), the "" wildcard is the audit walk over every record, and a
// tombstone stays reachable by ID — through Terminate's unlink and
// through SetShards' rebuild of the index.
func TestInstancesByUserIndex(t *testing.T) {
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			set, c := shardedCloud(k)
			c.SetQuota("alice", Quota{MaxInstances: 32, MaxCores: 32})
			c.SetQuota("bob", Quota{MaxInstances: 32, MaxCores: 32})
			for i := 0; i < 10; i++ {
				user := "alice"
				if i%2 == 1 {
					user = "bob"
				}
				if _, err := c.Launch(user, fmt.Sprintf("vm%02d", i), "m1.small", ""); err != nil {
					t.Fatal(err)
				}
			}
			set.RunFor(120)
			assertListingIsLiveSet(t, c, "after boot")

			alices := c.Instances("alice")
			stopped, victim := alices[0].ID, alices[1].ID
			if err := c.Stop("alice", stopped); err != nil {
				t.Fatal(err)
			}
			set.RunFor(float64(stopDelay) + 1)
			if err := c.Terminate("alice", victim); err != nil {
				t.Fatal(err)
			}

			check := func(when string) {
				t.Helper()
				assertListingIsLiveSet(t, c, when)
				states := map[string]InstanceState{}
				for _, i := range c.Instances("alice") {
					states[i.ID] = i.State
				}
				if len(states) != 4 || states[stopped] != StateShutoff {
					t.Fatalf("%s: alice lists %v, want 4 instances with %s SHUTOFF", when, states, stopped)
				}
				if _, listed := states[victim]; listed {
					t.Fatalf("%s: terminated %s still in alice's listing", when, victim)
				}
				if n := len(c.Instances("")); n != 10 {
					t.Fatalf("%s: audit walk holds %d records, want all 10", when, n)
				}
				if got, ok := c.Instance(victim); !ok || got.State != StateTerminated {
					t.Fatalf("%s: Instance(%s) = %+v, %v; want the TERMINATED tombstone", when, victim, got, ok)
				}
				if err := c.Terminate("alice", victim); err != nil {
					t.Fatalf("%s: second Terminate = %v, want nil", when, err)
				}
			}
			check("after terminate")

			// Re-bucket K → 1 → K: the rebuilt index must not resurrect
			// the tombstone.
			c.SetShards(nil)
			check("re-bucketed onto one shard")
			c.SetShards(set)
			check("re-bucketed back")

			// The rebuilt index keeps serving transitions.
			if err := c.Terminate("alice", stopped); err != nil {
				t.Fatal(err)
			}
			assertListingIsLiveSet(t, c, "terminate after re-bucket")
			if n := len(c.Instances("alice")); n != 3 {
				t.Fatalf("alice lists %d after terminating a SHUTOFF instance, want 3", n)
			}
		})
	}
}

// TestInstancesCostIndependentOfHistory: a listing pays for the live set,
// not for what the user launched and terminated before it.
func TestInstancesCostIndependentOfHistory(t *testing.T) {
	_, c := shardedCloud(8)
	for _, user := range []string{"newcomer", "veteran"} {
		if _, err := c.Launch(user, "live", "m1.small", ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		inst, err := c.Launch("veteran", fmt.Sprintf("old%04d", i), "m1.small", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Terminate("veteran", inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n, v := len(c.Instances("newcomer")), len(c.Instances("veteran")); n != 1 || v != 1 {
		t.Fatalf("listings hold %d and %d instances, want 1 and 1", n, v)
	}
	if n := len(c.Instances("")); n != 4098 {
		t.Fatalf("audit walk holds %d records, want 4098", n)
	}
	allocs := func(user string) float64 {
		return testing.AllocsPerRun(100, func() { _ = c.Instances(user) })
	}
	if n, v := allocs("newcomer"), allocs("veteran"); n != v {
		t.Fatalf("Instances allocates %.0f times for a fresh user but %.0f behind a 4096-record history", n, v)
	}
}

// TestRunningByUserCostIndependentOfPopulation: the usage sample merges
// the per-user accounts, so it pays for the users, not for the instances
// behind them — the same two tenants cost the same over 1 000 and over
// 20 000 records, and the answer survives taking the records away.
func TestRunningByUserCostIndependentOfPopulation(t *testing.T) {
	grid := func(pop int) *Cloud {
		const hostCores = 512
		_, c := shardedCloud(8)
		for i := 0; i*hostCores < pop; i++ {
			c.AddHost(NewHost(fmt.Sprintf("grid-%02d", i), hostCores, hostCores*4096, hostCores*100))
		}
		c.SetQuota("grid", Quota{MaxInstances: pop, MaxCores: pop})
		for i := 0; i < pop; i++ {
			if _, err := c.Launch("grid", fmt.Sprintf("bg%05d", i), "m1.small", ""); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Launch("alice", fmt.Sprintf("vm%d", i), "m1.small", ""); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	small, large := grid(1000), grid(20000)
	allocs := func(c *Cloud) float64 {
		return testing.AllocsPerRun(100, func() { _ = c.RunningByUser() })
	}
	if s, l := allocs(small), allocs(large); s != l {
		t.Fatalf("RunningByUser allocates %.0f times over 1000 instances but %.0f over 20000", s, l)
	}
	want := map[string][2]int{"grid": {20000, 20000}, "alice": {2, 2}}
	if got := large.RunningByUser(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunningByUser = %v, want %v", got, want)
	}
	for _, sh := range large.topo.Load().sh {
		sh.mu.Lock()
		sh.inst = nil
		sh.mu.Unlock()
	}
	if got := large.RunningByUser(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunningByUser read the instance records: without them it answers %v, want %v", got, want)
	}
}

func TestUsageSinceDeltaSemantics(t *testing.T) {
	set, c := shardedCloud(8)
	c.SetQuota("alice", Quota{MaxInstances: 32, MaxCores: 32})
	c.SetQuota("bob", Quota{MaxInstances: 32, MaxCores: 32})

	// A fresh caller (since 0) gets a Reset snapshot, even when empty.
	d := c.UsageSince(0)
	if !d.Reset || len(d.Changed) != 0 {
		t.Fatalf("empty-cloud UsageSince(0) = %+v, want empty Reset", d)
	}

	a1, err := c.Launch("alice", "a1", "m1.small", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("bob", "b1", "m1.small", ""); err != nil {
		t.Fatal(err)
	}
	d = c.UsageSince(0)
	if !d.Reset || len(d.Changed) != 2 {
		t.Fatalf("UsageSince(0) = %+v, want Reset with 2 users", d)
	}
	rev := d.Rev

	// Nothing changed: the delta is empty at the same rev.
	d = c.UsageSince(rev)
	if d.Reset || len(d.Changed) != 0 || len(d.Removed) != 0 || d.Rev != rev {
		t.Fatalf("quiescent UsageSince(%d) = %+v, want empty", rev, d)
	}

	// One more launch for alice: only alice appears, with her absolute
	// footprint.
	if _, err := c.Launch("alice", "a2", "m1.medium", ""); err != nil {
		t.Fatal(err)
	}
	d = c.UsageSince(rev)
	if d.Reset || len(d.Removed) != 0 {
		t.Fatalf("UsageSince after launch = %+v", d)
	}
	if len(d.Changed) != 1 || d.Changed["alice"] != [2]int{2, 3} {
		t.Fatalf("changed = %v, want alice with 2 instances / 3 cores", d.Changed)
	}
	rev = d.Rev

	// Terminating bob's only instance removes him from the next delta —
	// the regression this PR pins: a drained user must not be silently
	// retained (he would keep accruing forever).
	bobs := c.Instances("bob")
	if err := c.Terminate("bob", bobs[0].ID); err != nil {
		t.Fatal(err)
	}
	d = c.UsageSince(rev)
	if len(d.Changed) != 0 || !reflect.DeepEqual(d.Removed, []string{"bob"}) {
		t.Fatalf("delta after bob drains = %+v, want Removed=[bob]", d)
	}
	rev = d.Rev

	// A SHUTOFF instance keeps its allocation but leaves the running
	// footprint: stopping one of alice's reports her reduced absolute
	// value.
	if err := c.Stop("alice", a1.ID); err != nil {
		t.Fatal(err)
	}
	set.RunFor(float64(stopDelay) + 1)
	d = c.UsageSince(rev)
	if len(d.Changed) != 1 || d.Changed["alice"] != [2]int{1, 2} {
		t.Fatalf("delta after stop = %+v, want alice at 1 instance / 2 cores", d)
	}
	rev = d.Rev

	// A caller ahead of the cloud (a restart under it) gets a Reset
	// resync carrying the full population.
	d = c.UsageSince(rev + 1000)
	if !d.Reset || len(d.Changed) != 1 {
		t.Fatalf("ahead-of-rev UsageSince = %+v, want Reset with alice", d)
	}
}

// TestUsageCountersShardedStorm is the K=8 -race invariance check: full
// lifecycles on every shard racing boot/stop timers on eight clock
// goroutines and concurrent counter reads, with counter-vs-recount
// equality demanded at the join.
func TestUsageCountersShardedStorm(t *testing.T) {
	set, c := shardedCloud(8)
	set.Share() // API goroutines race the clock goroutines below
	const workers = 6
	for w := 0; w < workers; w++ {
		c.SetQuota(fmt.Sprintf("u%d", w), Quota{MaxInstances: 64, MaxCores: 64})
	}

	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				set.RunFor(7)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < 40; i++ {
				inst, err := c.Launch(user, fmt.Sprintf("%s-vm%02d", user, i), "m1.small", "")
				if err != nil {
					continue // capacity contention is expected
				}
				switch i % 3 {
				case 0:
					_ = c.Stop(user, inst.ID)
				case 1:
					_ = c.Terminate(user, inst.ID)
				}
				// Race the read paths against the transitions.
				_ = c.RunningByUser()
				_ = c.UsageSince(0)
				_ = c.Instances(user)
			}
		}()
	}
	wg.Wait()
	close(stop)
	driver.Wait()

	// Settle pending boot/stop timers, then demand exact equality.
	set.RunFor(200)
	assertCountersMatchScan(t, c, "at join")
	d := c.UsageSince(0)
	want := c.RunningByUser()
	if len(want) == 0 {
		if len(d.Changed) != 0 {
			t.Fatalf("full delta reports %v on a drained cloud", d.Changed)
		}
	} else if !reflect.DeepEqual(map[string][2]int(d.Changed), want) {
		t.Fatalf("full delta diverged from counters:\ndelta   : %v\ncounters: %v", d.Changed, want)
	}
}
