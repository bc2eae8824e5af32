// Package core assembles the Open Science Data Cloud: the four-site
// federation of Figure 3, the resource inventory of Table 2, and the
// services of Figure 1, built from the substrate packages.
//
// A Federation holds:
//
//   - the WAN topology (simnet) joining the two Chicago data centers, the
//     Livermore Valley Open Campus and AMPATH/Miami through StarLight;
//   - OSDC-Adler (OpenStack-like) and OSDC-Sullivan (Eucalyptus-like)
//     utility clouds with their GlusterFS-like volumes and Samba-like
//     permission gateways;
//   - OSDC-Root, the ~1 PB storage cloud holding the public datasets;
//   - OCC-Matsu, the Hadoop-like data cloud Matsu's jobs run on (OCC-Y,
//     which runs none, is in the inventory and topology only);
//   - the science-cloud services: Tukey middleware, ARK dataset IDs, the
//     public-data catalog, billing/accounting and monitoring.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"osdc/internal/ark"
	"osdc/internal/billing"
	"osdc/internal/cloudapi"
	"osdc/internal/datasets"
	"osdc/internal/datastore"
	"osdc/internal/dfs"
	"osdc/internal/gateway"
	"osdc/internal/iaas"
	"osdc/internal/mapred"
	"osdc/internal/monitor"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/simnet"
	"osdc/internal/tukey"
)

// TB is one terabyte in bytes.
const TB = int64(1) << 40

// Cluster names from Table 2 / §7.1.
const (
	ClusterAdler    = "OSDC-Adler"
	ClusterSullivan = "OSDC-Sullivan"
	ClusterRoot     = "OSDC-Root"
	ClusterOCCY     = "OCC-Y"
	ClusterMatsu    = "OCC-Matsu"
)

// Federation is the assembled OSDC.
type Federation struct {
	// Engine is the console engine — the anchor shard of Set. All
	// service-plane timers (billing pollers, monitoring sweeps, the WAN)
	// live here; per-entity timers spread across Set's shards when
	// Options.Shards > 1.
	Engine *sim.Engine
	// Set is the sharded simulation kernel. With the default Shards=1 it
	// holds only the anchor and the federation behaves exactly as the
	// single-engine assembly (goldens are bit-identical).
	Set     *sim.ShardSet
	Network *simnet.Network

	Adler    *iaas.Cloud
	Sullivan *iaas.Cloud

	// AdlerAPI and SullivanAPI are the transports the science-cloud
	// services use to reach the clouds: Local wrappers in this
	// single-process assembly; StartConsole polls Remotes instead in the
	// per-site topologies.
	AdlerAPI    cloudapi.CloudAPI
	SullivanAPI cloudapi.CloudAPI

	AdlerGFS    *dfs.Volume // 156 TB (§7.1)
	SullivanGFS *dfs.Volume // 38 TB
	RootGFS     *dfs.Volume // 459 TB primary store + ~1 PB raw cloud

	RootExport *gateway.Export

	Matsu *mapred.Cluster // ~120 cores, 100 TB

	IDs      *ark.Service
	Catalog  *datasets.Catalog
	Biller   *billing.Biller
	Tukey    *tukey.Middleware
	Nagios   *monitor.Master
	UsageMon *monitor.UsageMonitor

	// TukeyReplicas are stateless clones of Tukey created by
	// AddTukeyReplica: same IdPs and clouds, a shared session store, a
	// distinct token prefix each. EnrollResearcher fans credential grants
	// across them so every replica can serve every researcher.
	TukeyReplicas []*tukey.Middleware

	// ShibIdP is the campus identity provider EnrollResearcher enrolls
	// accounts with.
	ShibIdP *tukey.ShibbolethIdP

	// ClockSync is the clock coordinator keeping followed per-site engines
	// within a bounded skew of the console engine; StartConsole starts it
	// when some site follows (free-running sites never need one).
	ClockSync *cloudapi.ClockCoordinator

	// Stores are the per-site dataset stores, keyed by cluster name:
	// OSDC-Root adopts the catalog's master copies (the bytes the catalog
	// published onto RootGFS), the utility clouds start empty and receive
	// replicas from the replication coordinator.
	Stores map[string]*datastore.Store
	// Replication is the data-plane coordinator; nil until
	// StartReplication.
	Replication *datastore.Coordinator
}

// Options tunes federation construction.
type Options struct {
	Seed uint64
	// Scale shrinks server counts by this divisor for fast tests (1 =
	// paper-scale). Capacities in the inventory report are unaffected.
	Scale int
	// Shards is the simulation kernel's shard count (<= 1 means a single
	// engine). With K > 1, per-entity timers (instance boots, workload
	// flows keyed by entity ID) spread over K engines advanced in
	// lockstep by Federation.RunFor; everything scheduled on f.Engine
	// stays on the anchor shard.
	Shards int
}

// New builds the full federation. With Scale=1 this is the paper-scale
// deployment: ~2300 cores across compute and Hadoop clusters.
func New(opt Options) (*Federation, error) {
	if opt.Scale < 1 {
		opt.Scale = 1
	}
	set := sim.NewShardSet(opt.Seed, opt.Shards)
	e := set.Anchor()
	f := &Federation{Engine: e, Set: set}

	// --- network: Figure 3's four data centers ---
	f.Network = simnet.BuildOSDCTopology(simnet.DefaultWAN())

	// --- compute clouds ---
	// OSDC-Adler & Sullivan together are 1248 cores (Table 2): 156 paper
	// servers. Split 2 racks Adler / 2 racks Sullivan.
	f.Adler = BuildCloud(e, ClusterAdler, opt.Scale)
	f.Sullivan = BuildCloud(e, ClusterSullivan, opt.Scale)
	f.Adler.SetShards(set)
	f.Sullivan.SetShards(set)
	f.AdlerAPI = cloudapi.NewLocal(f.Adler)
	f.SullivanAPI = cloudapi.NewLocal(f.Sullivan)

	// --- storage volumes (§7.1 sizes) ---
	var err error
	if f.AdlerGFS, err = buildVolume(e, "adler-gfs", simnet.SiteChicagoKenwood, 156*TB, 4/boundScale(opt.Scale, 4)); err != nil {
		return nil, err
	}
	if f.SullivanGFS, err = buildVolume(e, "sullivan-gfs", simnet.SiteChicagoNU, 38*TB, 2); err != nil {
		return nil, err
	}
	// Table 2: OSDC-Root is "approximately 1 PB of disk" (459 TB of it is
	// the §7.1 primary GlusterFS share). One replica set: the public
	// datasets are placed together, so a multi-set elastic hash could
	// overload a single set.
	if f.RootGFS, err = buildVolume(e, "root-gfs", simnet.SiteChicagoKenwood, 1024*TB, 2); err != nil {
		return nil, err
	}
	f.RootExport = gateway.New(f.RootGFS)
	// Public data world-readable; curator-writable.
	f.RootExport.Allow(gateway.ACE{Prefix: "/glusterfs/public/", Mode: gateway.PermRead})
	f.RootExport.Allow(gateway.ACE{Prefix: "/glusterfs/public/", User: "curator", Mode: gateway.PermRead | gateway.PermWrite})

	// --- Hadoop data clouds ---
	// OCC-Y runs no job, so only the draw its HDFS fork took remains.
	e.RNG().Uint64()
	// OCC-Matsu: 15 paper nodes × 8 slots, 120 cores.
	datanodes := make([]string, max(15/opt.Scale, 2))
	for i := range datanodes {
		datanodes[i] = fmt.Sprintf("%s-dn%03d", ClusterMatsu, i)
	}
	f.Matsu = mapred.NewCluster(e, mapred.NewHDFS(e, datanodes, mapred.DefaultBlockSize, 3), 8)

	// --- science cloud services ---
	f.IDs = ark.NewService()
	f.Catalog = datasets.NewCatalog(f.IDs, f.RootGFS)
	f.Catalog.AddCurator("curator")
	for _, d := range datasets.PaperDatasets() {
		if _, err := f.Catalog.Publish("curator", d); err != nil {
			return nil, fmt.Errorf("core: publishing %s: %w", d.Name, err)
		}
	}
	// --- per-site dataset stores (the data plane's Local backends) ---
	f.Stores = map[string]*datastore.Store{
		ClusterAdler:    datastore.NewStore(ClusterAdler, simnet.SiteChicagoKenwood, f.AdlerGFS),
		ClusterSullivan: datastore.NewStore(ClusterSullivan, simnet.SiteChicagoNU, f.SullivanGFS),
		ClusterRoot:     datastore.NewStore(ClusterRoot, simnet.SiteChicagoKenwood, f.RootGFS),
	}
	for _, d := range f.Catalog.All() {
		// The master copies already live on RootGFS (Publish wrote them);
		// Adopt registers the replicas without accounting the bytes twice.
		if err := f.Stores[ClusterRoot].Adopt(datastore.Replica{Dataset: d.Name, SizeBytes: d.SizeBytes, Version: 1}); err != nil {
			return nil, fmt.Errorf("core: adopting %s on %s: %w", d.Name, ClusterRoot, err)
		}
	}

	f.Biller = billing.New(e, []cloudapi.CloudAPI{f.AdlerAPI, f.SullivanAPI})
	f.UsageMon = monitor.NewUsageMonitor(e, []cloudapi.CloudAPI{f.AdlerAPI, f.SullivanAPI}, 5*sim.Minute)

	// --- Tukey middleware with both IdPs ---
	f.Tukey = tukey.NewMiddleware()
	f.ShibIdP = tukey.NewShibboleth("uchicago.edu")
	f.Tukey.RegisterIdP(f.ShibIdP)
	f.Tukey.RegisterIdP(tukey.NewOpenID("https://id.opensciencedatacloud.org"))

	// --- Nagios over every cluster's nodes ---
	f.Nagios = monitor.NewMaster(e, 5*sim.Minute)
	for _, vol := range []*dfs.Volume{f.AdlerGFS, f.SullivanGFS, f.RootGFS} {
		vol := vol
		for _, b := range vol.Bricks() {
			b := b
			a := monitor.NewAgent(b.Name)
			a.Register(monitor.Check{
				Name:   "disk-util",
				Plugin: func() (float64, error) { return b.Disk.Utilization() * 100, nil },
				Warn:   80, Crit: 95,
			})
			f.Nagios.AddAgent(a)
		}
	}
	return f, nil
}

// RunFor advances the whole kernel — every shard — by d virtual seconds
// in lockstep. Scenarios running a sharded federation must use this (or
// f.Set.RunUntil) instead of f.Engine.RunFor, which would advance only
// the anchor shard. With Shards=1 the two are identical.
func (f *Federation) RunFor(d sim.Duration) sim.Time { return f.Set.RunFor(d) }

// BuildCloud constructs one of the federation's utility clouds — racks,
// images, stack dialect per Table 2 — standalone on the given engine. It is
// the per-site building block: core.New uses it for the single-process
// assembly, and StartConsole's per-site topologies and cmd/cloud-site call
// it once per private engine to stand each cloud up behind its own
// cloudapi.Server.
func BuildCloud(e *sim.Engine, name string, scale int) *iaas.Cloud {
	if scale < 1 {
		scale = 1
	}
	var c *iaas.Cloud
	switch name {
	case ClusterAdler:
		c = iaas.NewCloud(e, ClusterAdler, "openstack", simnet.SiteChicagoKenwood)
		c.AddRack("adler-r1", 39/scale)
		c.AddRack("adler-r2", 39/scale)
	case ClusterSullivan:
		c = iaas.NewCloud(e, ClusterSullivan, "eucalyptus", simnet.SiteChicagoNU)
		c.AddRack("sullivan-r1", 39/scale)
		c.AddRack("sullivan-r2", 39/scale)
	default:
		panic("core: BuildCloud knows no cloud " + name)
	}
	c.RegisterImage(iaas.Image{Name: "ubuntu-12.04-server", Public: true})
	c.RegisterImage(iaas.Image{Name: "osdc-datasci", Public: true,
		Tools: []string{"python-numpy", "R", "hadoop-client"}})
	return c
}

// SiteOf maps a cluster name to the simnet site hosting it (Figure 3).
func SiteOf(cluster string) string {
	switch cluster {
	case ClusterAdler, ClusterRoot:
		return simnet.SiteChicagoKenwood
	case ClusterSullivan, ClusterOCCY:
		return simnet.SiteChicagoNU
	case ClusterMatsu:
		return simnet.SiteAMPATH
	}
	return simnet.SiteChicagoKenwood
}

// StartSite stands cloud name up as its own world, the unit of the
// per-site topologies and of cmd/cloud-site: a private kernel of shards
// engines at seed, the cloud on it, and a dataset store on its own volume
// (§7.1 sizes) served on the site's datasets plane, all behind a
// cloudapi.Site started per opts.
func StartSite(name string, seed uint64, scale, shards int, opts cloudapi.SiteOptions) (*cloudapi.Site, error) {
	set := sim.NewShardSet(seed, shards)
	e := set.Anchor()
	vol, err := buildDatasetVolume(e, name)
	if err != nil {
		return nil, fmt.Errorf("core: site %s: %w", name, err)
	}
	opts.Datasets = datastore.NewStore(name, SiteOf(name), vol)
	return cloudapi.StartSite(set, BuildCloud(e, name, scale), opts)
}

// buildDatasetVolume builds the storage volume backing a per-site dataset
// store on the site's own engine — the per-site counterpart of the
// GlusterFS shares core.New builds (§7.1 sizes).
func buildDatasetVolume(e *sim.Engine, cluster string) (*dfs.Volume, error) {
	switch cluster {
	case ClusterAdler:
		return buildVolume(e, "adler-gfs", simnet.SiteChicagoKenwood, 156*TB, 4)
	case ClusterSullivan:
		return buildVolume(e, "sullivan-gfs", simnet.SiteChicagoNU, 38*TB, 2)
	case ClusterRoot:
		return buildVolume(e, "root-gfs", simnet.SiteChicagoKenwood, 1024*TB, 2)
	}
	return buildVolume(e, strings.ToLower(cluster)+"-gfs", SiteOf(cluster), 100*TB, 2)
}

// ReplicationOptions tune StartReplication.
type ReplicationOptions struct {
	// Factor is the target replication factor of every dataset (< 1
	// means 1).
	Factor int
	// Interval starts the coordinator's background loop when > 0; with 0
	// the caller drives Rounds directly (the deterministic scenario
	// shape).
	Interval time.Duration
	// Seed feeds the coordinator's flow RNG.
	Seed uint64
	// Sites are the dataset planes to coordinate; nil means the three
	// in-process stores (Root, Adler, Sullivan).
	Sites []datastore.API
}

// StartReplication builds (and with opt.Interval > 0, starts) the data
// plane's replication coordinator over the federation engine, topology and
// catalog, replacing any previous one.
func (f *Federation) StartReplication(opt ReplicationOptions) *datastore.Coordinator {
	f.StopReplication()
	sites := opt.Sites
	if sites == nil {
		sites = []datastore.API{
			f.Stores[ClusterRoot], f.Stores[ClusterAdler], f.Stores[ClusterSullivan],
		}
	}
	f.Replication = datastore.NewCoordinator(f.Engine, f.Network, f.Catalog,
		datastore.Options{Factor: opt.Factor, Seed: opt.Seed}, sites...)
	if opt.Interval > 0 {
		f.Replication.Start(opt.Interval)
	}
	return f.Replication
}

// StopReplication halts the replication coordinator, if one is running.
// In-flight transfers are abandoned.
func (f *Federation) StopReplication() {
	if f.Replication != nil {
		f.Replication.Stop()
	}
}

// useCloudAPIs rewires the federation's metering and usage monitoring onto
// the given cloud transports — typically cloudapi.Remote clients for
// per-site cloud servers — stopping the pollers that watched the
// in-process clouds. The in-process Adler/Sullivan stay constructed (other
// subsystems reference them) but are no longer what the services bill or
// monitor.
func (f *Federation) useCloudAPIs(apis ...cloudapi.CloudAPI) {
	f.Biller.Stop()
	f.UsageMon.Stop()
	f.Biller = billing.New(f.Engine, apis)
	f.UsageMon = monitor.NewUsageMonitor(f.Engine, apis, 5*sim.Minute)
}

func boundScale(scale, max int) int {
	if scale > max {
		return max
	}
	return scale
}

func buildVolume(e *sim.Engine, name, site string, capacity int64, bricks int) (*dfs.Volume, error) {
	if bricks < 2 {
		bricks = 2
	}
	per := capacity / int64(bricks) * 2 // replica 2 doubles raw need
	bs := make([]*dfs.Brick, bricks)
	for i := range bs {
		d := simdisk.New(fmt.Sprintf("%s-disk%d", name, i), per)
		bs[i] = dfs.NewBrick(fmt.Sprintf("%s-brick%d", name, i), d)
	}
	return dfs.NewVolume(e, 2, dfs.Version33, bs)
}

// InventoryRow is one Table 2 row.
type InventoryRow struct {
	Resource string
	Type     string
	Cores    int
	DiskTB   int64
}

// Inventory reproduces Table 2 (sizes are the paper's stated capacities,
// independent of test-scale shrinking of the simulated host counts).
func Inventory() []InventoryRow {
	return []InventoryRow{
		{Resource: "OSDC-Adler & Sullivan", Type: "OpenStack & Eucalyptus based utility cloud", Cores: 1248, DiskTB: 1200},
		{Resource: "OSDC-Root", Type: "Storage cloud", Cores: 0, DiskTB: 1024},
		{Resource: "OCC-Y", Type: "Hadoop data cloud", Cores: 928, DiskTB: 1024},
		{Resource: "OCC-Matsu", Type: "Hadoop data cloud", Cores: 120, DiskTB: 100},
	}
}

// Totals sums the inventory; the paper's abstract quotes "more than 2000
// cores and 2 PB of storage".
func Totals() (cores int, diskTB int64) {
	for _, r := range Inventory() {
		cores += r.Cores
		diskTB += r.DiskTB
	}
	return cores, diskTB
}

// TopologyRow describes one Figure 3 cluster box.
type TopologyRow struct {
	Cluster string
	Site    string
	Stack   string
	// FullTukey marks clusters fully operational behind Tukey (solid arrows
	// in Figure 3); the Hadoop clusters support only some Tukey services.
	FullTukey bool
}

// Wiring reproduces Figure 3: where each cluster sits and how it meets Tukey.
func Wiring() []TopologyRow {
	rows := []TopologyRow{
		{ClusterAdler, simnet.SiteChicagoKenwood, "openstack", true},
		{ClusterSullivan, simnet.SiteChicagoNU, "eucalyptus", true},
		{ClusterRoot, simnet.SiteChicagoKenwood, "glusterfs", true},
		{ClusterOCCY, simnet.SiteChicagoNU, "hadoop", false},
		{ClusterMatsu, simnet.SiteAMPATH, "hadoop", false},
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cluster < rows[j].Cluster })
	return rows
}

// EnrollResearcher provisions an end-to-end account: a campus IdP entry and
// per-cloud credentials on Tukey and every replica.
func (f *Federation) EnrollResearcher(username, password string) {
	f.ShibIdP.Enroll(username, password)
	creds := []tukey.CloudCredential{
		{Cloud: ClusterAdler, AuthUser: username},
		{Cloud: ClusterSullivan, AuthUser: username},
	}
	f.Tukey.GrantCredentials(username+"@uchicago.edu", creds...)
	// Replicas keep their own credential tables (a snapshot taken at clone
	// time), so grants made after AddTukeyReplica must fan out — otherwise
	// a login through one replica would be an unknown account on another.
	for _, r := range f.TukeyReplicas {
		r.GrantCredentials(username+"@uchicago.edu", creds...)
	}
}

// AddTukeyReplica clones f.Tukey into a stateless replica: same IdPs, a
// snapshot of the current user DB and attached clouds, sessions resolved
// through store (nil = share f.Tukey's store), tokens minted under
// tokenPrefix. Call after AttachCloud wiring is done and before serving
// traffic; later EnrollResearcher calls reach every replica.
func (f *Federation) AddTukeyReplica(store tukey.SessionStore, tokenPrefix string) *tukey.Middleware {
	r := f.Tukey.Replica(store, tokenPrefix)
	f.TukeyReplicas = append(f.TukeyReplicas, r)
	return r
}
