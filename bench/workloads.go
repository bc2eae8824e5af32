package main

// The six workloads, their sizes, and the driver that runs one of them:
// set-up (timed, repeated), warm-up (discarded), measured phase, oracle.
// Later issues refer to the workloads by these names.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"osdc/internal/sim"
)

const defaultSeed = 2012

// Console load shape. Every console workload runs the same op loop, so the
// three differ in topology and state, not in traffic.
const (
	// driverSpeedup is simulated seconds per wall second: fast enough for
	// a billing poll every 100 ms, slow enough that the 10⁵-instance grid
	// asks the kernel for ~3×10⁴ heartbeats per wall second, not 3×10⁶.
	driverSpeedup = 600
	driverTick    = 2 * time.Millisecond

	// itersPerUser bounds a user's instance history: iaas.Cloud.Instances
	// copies and sorts every record a user ever launched, so a client that
	// kept one user would make the workload non-stationary.
	itersPerUser = 64
	// Closed forms per completed user: login, home launch and terminate,
	// six requests per iteration; launch, two listings (one per cloud) and
	// terminate reach a cloud.
	requestsPerIter     = 6
	translationsPerIter = 4

	gridHostCores = 512
	gridHeartbeat = sim.Duration(30 * sim.Minute)
	gridUser      = "grid"
	// probeHistory is the terminated-record count of the iaas history
	// probe's second user (the first has none).
	probeHistory = 4096
)

// Kernel load shape.
const (
	heartbeatShards = 2 // fixed, so counts do not depend on the box
	heartbeatPeriod = 120 * sim.Second
	// heartbeatWindow is one lockstep window: a whole number of beat
	// phases, near 10 ms of wall time, so ten seconds hold about a
	// thousand and the 95th percentile has fifty windows beyond it.
	heartbeatWindow = 8 * sim.Second
	flowRate        = 125e6 // bytes per simulated second
	flowScale       = 1e9   // Pareto scale: smallest transfer
	flowAlpha       = 1.1
	webPerFlow      = 10 // 1 entity in 10 is a science flow

	churnOutstanding = 4096
)

// Sweep load shape. The population is sweepBlocks × sweepSeeds consecutive
// seeds from defaultSeed on, whatever -seed is.
const (
	goldenSeed = 7
	goldenDir  = "../cmd/osdc-bench/testdata"
)

var sweepScenarios = []string{"table1", "table3", "mixed-workload", "wan-contention", "replication-sweep"}

// sizes are the counts that differ between a measured run and
// -validate-only, which builds every rig small and times nothing.
type sizes struct {
	users       [3]int // per console kind: accounts enrolled at set-up
	iters       int    // op-loop iterations per user
	background  int    // console-grid: heartbeating instances on Adler
	history     int    // console-grid: terminated records per user
	probes      int    // direct iaas / kernel probe calls per metric
	entities    int    // kernel-heartbeat population
	churnChunk  int    // kernel-churn fired events per chunk
	sweepSeeds  int    // sim-sweep seeds per round: one block of the population
	sweepBlocks int    // sim-sweep blocks in the population
}

// measuredSizes hold about 1.5× the accounts a 2 s warm-up and a 15 s closed
// loop consume on a 2-core box in its quick quarter-hours (≈ 46 users/s on
// console-local, 26 on console-grid, 15 on console-replicas); a client that
// runs out stops early and says so.
var measuredSizes = sizes{
	users: [3]int{1536, 640, 512}, iters: itersPerUser,
	background: 100_000, history: 512, probes: 400,
	entities: 500_000, churnChunk: 1 << 14, sweepSeeds: 8, sweepBlocks: 3,
}

var validateSizes = sizes{
	users: [3]int{4, 4, 4}, iters: 1,
	background: 600, history: 4, probes: 4,
	entities: 2_000, churnChunk: 1 << 10, sweepSeeds: 1, sweepBlocks: 1,
}

// config is one invocation's settings.
type config struct {
	seed     uint64
	seconds  float64 // measured phase; the traced phase runs a third of it
	clients  int     // C: client goroutines, and sweep workers
	validate bool
	// recording is set while -write-expected rewrites the kernel marks.
	recording bool
	sz        sizes
	outDir    string
}

// pinned reports whether the kernel workloads have recorded marks to meet:
// only the default seed at measured sizes does.
func (c *config) pinned() bool { return c.seed == defaultSeed && !c.validate && !c.recording }

func (c *config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is discarded: 2 s, or a fifth of a short measured phase.
func (c *config) warmup() time.Duration {
	w := c.measure() / 5
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

func (c *config) tracePath(workload string) string {
	return filepath.Join(c.outDir, "trace-"+workload+".jsonl")
}

// phase is what driving a rig for a while produced.
type phase struct {
	ops       int // requests, fired events or scenario runs
	attempted int // operations the oracle looked at
	failed    int // of those, failed or wrong
	// opsPerS is the rate of completed ops per host second, taken as a
	// median over the phase's work units (user cycles, windows, chunks,
	// sweep rounds) so a disturbed stretch of the run does not move it.
	opsPerS   float64
	latencyNs []int64 // what a caller waited for, one sample each
	// inOrder says latencyNs are in the order they were taken (the kernel
	// rigs' windows and chunks); latency_p95_ms is then read by stretches.
	inOrder  bool
	allocOps float64 // divisor of alloc_kb_per_op (ops; events × 10⁻³ for kernel-*)
	// referenceNs are the samples whose median the traced and untraced
	// phases are compared on: the four GET routes for a console, else nil
	// (then latencyNs).
	referenceNs []int64
}

func (p *phase) referenceP50() float64 {
	ns := p.referenceNs
	if ns == nil {
		ns = p.latencyNs
	}
	return percentile(nsToFloat(ns, 1e6), 50)
}

// rig is one workload, set up and ready to be driven.
type rig interface {
	// drive applies load for about d (validate: one unit of work) and
	// reports it. Phases follow one another on the same rig.
	drive(d time.Duration) phase
	// finish runs the end-of-run oracle and, on a traced rig, the layer
	// probes; it records metrics, tables and problems on res.
	finish(res *result)
	close()
}

type workload struct {
	name, why string
	// build sets the rig up; with traced set, wrappers are installed at
	// the interface seams and spans are kept.
	build func(cfg *config, traced bool) (rig, error)
}

var workloads = []workload{
	{"console-local", "baseline per-hop cost: console, tukey and cloudapi over loopback on fresh accounts; lb and tukeystate absent",
		func(cfg *config, traced bool) (rig, error) {
			return buildConsole(cfg, "console-local", kindLocal, traced)
		}},
	{"console-grid", "aged state: 100000 heartbeating instances and 512-record user histories, so iaas and the locked sim clock dominate",
		func(cfg *config, traced bool) (rig, error) {
			return buildConsole(cfg, "console-grid", kindGrid, traced)
		}},
	{"console-replicas", "lb in front of 2 stateless replicas on one tukeystate server: the proxy hop plus state-plane round trips",
		func(cfg *config, traced bool) (rig, error) {
			return buildConsole(cfg, "console-replicas", kindReplicas, traced)
		}},
	{"kernel-heartbeat", "sim only: 500000 pooled timers on 2 shards in lockstep windows; same-tick batches, Timer.Reset and the window join",
		buildHeartbeat},
	{"kernel-churn", "sim only: one shared engine, 4096 random-delay events with cancel-and-replace; heap push, pop, cancel and the lock",
		buildChurn},
	{"sim-sweep", "scenario.Sweep over the five paper tables, round and round a fixed 24 seeds: the only workload where transport, simnet, udt, datastore and scenario work",
		buildSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// heapFloorMB is live_heap_mb's resolution. Four of the six rigs hold well
// under a megabyte; there the figure is the Go runtime's own baseline and
// moves by ±10 KB from run to run, which on 0.16 MB is 9 %.
const heapFloorMB = 1

// heapAfterGC forces a collection and reads the live heap, in MB.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC() // the first may only finish a cycle already under way
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return math.Max(float64(ms.HeapAlloc)/(1<<20), heapFloorMB)
}

// setupRig builds w's rig. Timed set-up is repeated — at least three
// times, and for cheap rigs until three seconds have gone by — and the
// median reported: one set-up is too short to repeat within its bound, and
// a second of them sits whole inside one burst of a neighbour's load.
func setupRig(w workload, cfg *config, traced, timed bool) (rig, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		r, err := w.build(cfg, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		if !timed || (len(times) >= 3 && (total >= 3*time.Second || len(times) >= 1001)) {
			return r, times, nil
		}
		r.close()
	}
}

// allocFloorKB is alloc_kb_per_op's resolution. kernel-heartbeat allocates
// nothing per event by design; what is left is a few tens of KB of runtime
// background per run divided by 10⁴ kilo-events, which repeats to no better
// than a tenth. One 16-byte allocation per event would read 16.
const allocFloorKB = 0.01

// memDelta is the process-wide allocation between two points.
type memDelta struct {
	allocKB, mallocs, gcCycles, gcPauseMs float64
}

func memSince(a, b *runtime.MemStats) memDelta {
	return memDelta{
		allocKB:   float64(b.TotalAlloc-a.TotalAlloc) / 1024,
		mallocs:   float64(b.Mallocs - a.Mallocs),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// measurePhase warms r up and drives the measured phase between two
// MemStats reads.
func measurePhase(r rig, cfg *config, d time.Duration) (phase, memDelta) {
	if !cfg.validate {
		r.drive(cfg.warmup())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := r.drive(d)
	runtime.ReadMemStats(&m1)
	return ph, memSince(&m0, &m1)
}

// runEndToEnd measures w with every wrapper absent.
func runEndToEnd(w workload, cfg *config) (*result, error) {
	res := newResult()
	r, setups, err := setupRig(w, cfg, false, !cfg.validate)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.set("setup_s", median(setups), len(setups))
	res.set("live_heap_mb", heapAfterGC(), 1)

	ph, mem := measurePhase(r, cfg, cfg.measure())
	recordEndToEnd(res, ph, mem)
	r.finish(res)
	return res, nil
}

func recordEndToEnd(res *result, ph phase, mem memDelta) {
	res.attempted += ph.attempted
	res.failed += ph.failed
	lat := nsToFloat(ph.latencyNs, 1e6)
	p95 := percentile(lat, 95)
	if ph.inOrder {
		taken := make([]float64, len(ph.latencyNs))
		for i, ns := range ph.latencyNs {
			taken[i] = float64(ns) / 1e6
		}
		p95 = stretchPercentile(taken, 95)
	}
	res.set("ops_per_s", ph.opsPerS, ph.ops)
	res.set("latency_p50_ms", percentile(lat, 50), len(lat))
	res.set("latency_p95_ms", p95, len(lat))
	res.set("alloc_kb_per_op", math.Max(mem.allocKB/ph.allocOps, allocFloorKB), ph.ops)
	if tail := tailPercentile(len(lat)); tail > 0 {
		res.tables = append(res.tables, fmt.Sprintf("latency tail: p%.4g = %.6g ms, the highest percentile of %d samples with ten beyond it\n",
			tail, percentile(lat, tail), len(lat)))
	}
}

// runPerLayer measures w twice in one invocation: untraced, for the
// client's view and the tracing baseline, then for a third of the time
// with the wrappers installed.
func runPerLayer(w workload, cfg *config) (*result, error) {
	res := newResult()
	base, _, err := setupRig(w, cfg, false, false)
	if err != nil {
		return nil, err
	}
	ph, mem := measurePhase(base, cfg, cfg.measure())
	recordEndToEnd(res, ph, mem)
	res.set("go.mallocs_per_op", mem.mallocs/float64(ph.ops), ph.ops)
	res.set("go.gc_cycles", mem.gcCycles, 1)
	res.set("go.gc_pause_ms_total", mem.gcPauseMs, int(mem.gcCycles))
	res.set("go.goroutines_peak", float64(runtime.NumGoroutine()), 1)
	base.finish(res)
	base.close()
	untraced := ph.referenceP50()

	traced, _, err := setupRig(w, cfg, true, false)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	ph, _ = measurePhase(traced, cfg, cfg.measure()/3)
	res.attempted += ph.attempted
	res.failed += ph.failed
	traced.finish(res)
	if untraced > 0 {
		res.set("trace.overhead_pct", 100*(ph.referenceP50()-untraced)/untraced, len(ph.latencyNs))
	}
	return res, nil
}
