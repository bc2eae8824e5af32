package core

import (
	"strings"
	"testing"

	"osdc/internal/monitor"
	"osdc/internal/sim"
	"osdc/internal/simnet"
)

func newFed(t *testing.T) *Federation {
	t.Helper()
	f, err := New(Options{Seed: 7, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTable2Inventory pins the per-cluster rows no scenario key reports;
// the totals and Figure 3's arrows are claims in cmd/osdc-bench's ledger.
func TestTable2Inventory(t *testing.T) {
	if rows := Inventory(); rows[0].Cores != 1248 || rows[2].Cores != 928 || rows[3].Cores != 120 {
		t.Fatalf("per-cluster cores wrong: %+v", rows)
	}
}

func TestFigure3Topology(t *testing.T) {
	sites := map[string]bool{}
	for _, r := range Wiring() {
		sites[r.Site] = true
	}
	if len(sites) < 3 {
		t.Fatalf("clusters span %d sites, want ≥3", len(sites))
	}
	// The WAN connects all sites.
	if simnet.BuildOSDCTopology(simnet.DefaultWAN()).PathRTT(
		"gw-chicago-kenwood", "gw-lvoc") < 0.09 {
		t.Fatal("Chicago-LVOC RTT unexpectedly low")
	}
}

func TestPaperScaleCores(t *testing.T) {
	f, err := New(Options{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated hypervisors at paper scale: 4 racks × 39 × 8 = 1248.
	if got := f.Adler.TotalCores() + f.Sullivan.TotalCores(); got != 1248 {
		t.Fatalf("simulated utility cores = %d, want 1248", got)
	}
	// Hadoop slots exist.
	if f.Matsu.TotalSlots() == 0 {
		t.Fatal("the hadoop cluster has no slots")
	}
}

func TestPublicDatasetsPublished(t *testing.T) {
	f := newFed(t)
	var total int64
	arks := map[string]bool{}
	for _, d := range f.Catalog.All() {
		total += d.SizeBytes
		arks[d.ARK] = true
	}
	if total < 600*TB {
		t.Fatalf("public data = %d TB, want >600 TB", total/TB)
	}
	// Every dataset got its own ARK under the OSDC's NAAN.
	for ark := range arks {
		if !strings.HasPrefix(ark, "ark:/31807/osdc") {
			t.Fatalf("dataset ARK %q is not under the OSDC NAAN", ark)
		}
	}
	if len(arks) != len(f.Catalog.All()) || f.IDs.Minted != int64(len(arks)) {
		t.Fatalf("%d distinct ARKs, %d minted, for %d datasets", len(arks), f.IDs.Minted, len(f.Catalog.All()))
	}
}

func TestEnrolledResearcherCanUseTukey(t *testing.T) {
	f := newFed(t)
	f.EnrollResearcher("chris", "pw")
	tok, err := f.Tukey.Login("shibboleth", "chris", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if tok == "" {
		t.Fatal("no session token")
	}
	// No HTTP endpoints attached in this unit test, so just the session
	// machinery; the Figure 1 end-to-end test lives at the repo root.
}

func TestGatewayProtectsPublicShare(t *testing.T) {
	f := newFed(t)
	if err := f.RootExport.Write("curator", "/glusterfs/public/test/README", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RootExport.Read("anyone", "/glusterfs/public/test/README"); err != nil {
		t.Fatalf("public read denied: %v", err)
	}
	if err := f.RootExport.Write("anyone", "/glusterfs/public/test/README", []byte("y")); err == nil {
		t.Fatal("public write allowed")
	}
}

func TestBillingRunsOnFederationClock(t *testing.T) {
	f := newFed(t)
	f.EnrollResearcher("chris", "pw")
	if _, err := f.Adler.Launch("chris", "vm", "m1.large", ""); err != nil {
		t.Fatal(err)
	}
	f.Engine.RunFor(2 * sim.Hour)
	u := f.Biller.CurrentUsage("chris")
	if u.CoreHours() < 7 || u.CoreHours() > 9 {
		t.Fatalf("core-hours after 2 h on 4 cores = %v, want ~8", u.CoreHours())
	}
}

func TestMonitoringWiredToBricks(t *testing.T) {
	f := newFed(t)
	f.Engine.RunFor(6 * sim.Minute)
	// No alerts on a healthy, empty federation.
	if n := len(f.Nagios.Alerts()); n != 0 {
		t.Fatalf("unexpected alerts on empty federation: %d", n)
	}
	// A brick filled past the warning threshold alerts at the next sweep.
	b := f.AdlerGFS.Bricks()[0]
	if err := b.Disk.Alloc(b.Disk.Capacity * 9 / 10); err != nil {
		t.Fatal(err)
	}
	f.Engine.RunFor(5 * sim.Minute)
	if a := f.Nagios.Alerts(); len(a) != 1 || a[0].Host != b.Name || a[0].State != monitor.StateWarning {
		t.Fatalf("alerts after filling %s to 90%%: %+v, want one WARNING", b.Name, a)
	}
}

func TestUsageMonitorPublishes(t *testing.T) {
	f := newFed(t)
	f.EnrollResearcher("dana", "pw")
	if _, err := f.Adler.Launch("dana", "vm", "m1.small", ""); err != nil {
		t.Fatal(err)
	}
	f.Engine.RunFor(6 * sim.Minute)
	status := f.UsageMon.PublicStatus()
	if len(status) != 2 {
		t.Fatalf("status clouds = %d, want 2", len(status))
	}
	for _, s := range status {
		if s.Cloud == ClusterAdler && s.RunningVMs != 1 {
			t.Fatalf("adler snapshot = %+v", s)
		}
	}
}

func TestDefaultKernelIsSingleShard(t *testing.T) {
	f := newFed(t)
	if f.Set.K() != 1 {
		t.Fatalf("default shard count = %d, want 1", f.Set.K())
	}
	if f.Set.Anchor() != f.Engine {
		t.Fatal("console engine is not the kernel anchor")
	}
	if f.Set.Shard("anything") != f.Engine {
		t.Fatal("K=1 shard routing left the anchor")
	}
}

// TestShardedFederationBootsInstances builds a K=4 federation, launches
// across several users, and advances the whole kernel: every boot timer
// lands on the shard owning its instance ID, so the instances only reach
// ACTIVE if RunFor advanced all shards in lockstep.
func TestShardedFederationBootsInstances(t *testing.T) {
	f, err := New(Options{Seed: 7, Scale: 8, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.Set.K() != 4 {
		t.Fatalf("shard count = %d, want 4", f.Set.K())
	}
	users := []string{"ann", "ben", "cam", "deb", "eve", "fox"}
	var ids []string
	for _, u := range users {
		inst, err := f.Adler.Launch(u, "vm", "m1.small", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}
	// The IDs must spread over more than one shard for this to exercise
	// cross-shard advance.
	shardsUsed := map[int]bool{}
	for _, id := range ids {
		shardsUsed[f.Set.ShardIndex(id)] = true
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("all %d instances hashed to one shard — keying broken?", len(ids))
	}
	f.RunFor(2 * sim.Minute)
	for i, u := range users {
		insts := f.Adler.Instances(u)
		if len(insts) != 1 || insts[0].ID != ids[i] {
			t.Fatalf("%s lists %v, want only %s", u, insts, ids[i])
		}
		if insts[0].State != "ACTIVE" {
			t.Fatalf("instance %s state %s after boot window, want ACTIVE", ids[i], insts[0].State)
		}
	}
	if f.Set.Skew() != 0 {
		t.Fatalf("cross-shard skew %v after lockstep advance, want 0", f.Set.Skew())
	}
}
