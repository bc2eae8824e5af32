package experiments

// Sharded live-path stress: a K=8 grid rig with console traffic racing
// boot/heartbeat/stop timers on every shard. Run under -race this is the
// integration check for the shard-homing lock discipline — API goroutines
// take bucket locks against callbacks firing concurrently on eight clock
// goroutines.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"osdc/internal/core"
	"osdc/internal/iaas"
)

func TestShardedConsoleGridRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP load scenario")
	}
	const bg = 1000
	d, err := core.StartConsole(consoleLoadConfig(7, ConsoleLoadOpts{Shards: 8, BgInstances: bg}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f := d.Fed
	if f.Set.K() != 8 {
		t.Fatalf("rig kernel K = %d, want 8", f.Set.K())
	}

	// The background grid population, launched while the clock is live so
	// boots and heartbeats are already firing on their shards during the
	// console storm below.
	f.Adler.SetQuota(gridUser, iaas.Quota{MaxInstances: bg + 1, MaxCores: bg + 1})
	for i := 0; i < bg; i++ {
		if _, err := f.Adler.Launch(gridUser, fmt.Sprintf("bg-%06d", i), "m1.small", ""); err != nil {
			t.Fatal(err)
		}
	}

	users, err := enroll(d, 4, iaas.Quota{MaxInstances: 20, MaxCores: 40})
	if err != nil {
		t.Fatal(err)
	}

	// The storm: every researcher loops launch → list → usage → stop →
	// terminate against Adler, so the full lifecycle (including the
	// stop-path cancellation that must resolve the owning shard) races the
	// background timers.
	clients := newConsoleClients(d, users)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.login(); err != nil {
				return
			}
			for it := 0; it < 8; it++ {
				id := c.launch(core.ClusterAdler, fmt.Sprintf("%s-it%d", c.user, it))
				drain(c.do("GET", "/console/instances", "", http.StatusOK))
				drain(c.do("GET", "/console/usage", "", http.StatusOK))
				drain(c.do("POST", "/console/stop", fmt.Sprintf(
					`{"cloud":%q,"id":%q}`, core.ClusterAdler, id), http.StatusOK))
				drain(c.do("POST", "/console/terminate", fmt.Sprintf(
					`{"cloud":%q,"id":%q}`, core.ClusterAdler, id), http.StatusOK))
			}
		}()
	}
	wg.Wait()
	for _, r := range tallyRecords(clients).failures {
		t.Errorf("failed request: %v", r)
	}

	// The storm is quick; let the live clock reach the first heartbeat
	// window (30 sim minutes ≈ 3 s wall at this speedup) before stopping
	// the drivers.
	hbDeadline := time.Now().Add(10 * time.Second)
	for f.Adler.Heartbeats() == 0 && time.Now().Before(hbDeadline) {
		time.Sleep(10 * time.Millisecond)
	}

	d.StopClock()
	if skew := f.Set.Skew(); skew != 0 {
		t.Errorf("shard skew %v after driver join, want 0", skew)
	}
	populated := 0
	for _, n := range f.Adler.ShardPopulation() {
		if n > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("grid population collapsed onto %d shard bucket(s)", populated)
	}
	if f.Adler.Heartbeats() == 0 {
		t.Error("no grid heartbeats fired during the storm")
	}
}
