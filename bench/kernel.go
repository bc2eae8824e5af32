package main

// The two kernel workloads: nothing above internal/sim runs. They use the
// same layer differently — kernel-heartbeat is whole-second-aligned pooled
// timers in lockstep windows (batches, Timer.Reset, the window join);
// kernel-churn is random timestamps with cancel-and-replace on one shared
// engine (heap push/pop/cancel/compact and the lock on every call).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"osdc/internal/sim"
)

// expected pins, for the default seed, what the deterministic kernel must
// produce: cumulative counts after each of the first windows or chunks.
// Regenerate with -write-expected after an intended change of event order.
type expected struct {
	Heartbeat []heartbeatMark `json:"kernel-heartbeat"`
	Churn     []churnMark     `json:"kernel-churn"`
}

type heartbeatMark struct {
	Fired     uint64 `json:"fired"`
	Transfers uint64 `json:"transfers"`
}

type churnMark struct {
	SimTime float64 `json:"sim_time"`
	Cancels int     `json:"cancels"`
}

const (
	expectedFile  = "expected.json"
	expectedMarks = 32 // a run on any box gets past these
)

func loadExpected() (expected, error) {
	var e expected
	raw, err := os.ReadFile(expectedFile)
	if err != nil {
		return e, err
	}
	return e, json.Unmarshal(raw, &e)
}

// kernelPhase is what both kernel rigs keep of the last drive for finish.
type kernelPhase struct {
	unitNs     []int64   // one lockstep window or one chunk each
	unitRate   []float64 // events per second within each
	fired      uint64
	elapsed    time.Duration
	mallocs    uint64
	pendingMax int
}

func (k *kernelPhase) phase(failed int) phase {
	return phase{
		ops: int(k.fired), attempted: len(k.unitNs), failed: failed,
		opsPerS:   median(k.unitRate),
		latencyNs: k.unitNs, inOrder: true, allocOps: float64(k.fired) / 1e3,
	}
}

// unit records one window or chunk of n fired events.
func (k *kernelPhase) unit(d time.Duration, n uint64) {
	k.unitNs = append(k.unitNs, int64(d))
	k.unitRate = append(k.unitRate, float64(n)/d.Seconds())
}

func (k *kernelPhase) report(res *result, imbalance float64) {
	ms := nsToFloat(k.unitNs, 1e6)
	res.set("sim.ns_per_event", float64(k.elapsed)/float64(k.fired), int(k.fired))
	res.set("sim.allocs_per_event", float64(k.mallocs)/float64(k.fired), int(k.fired))
	res.set("sim.window_ms_p50", percentile(ms, 50), len(ms))
	res.set("sim.window_ms_max", percentile(ms, 100), len(ms))
	res.set("sim.shard_imbalance", imbalance, len(ms))
	res.set("sim.pending_max", float64(k.pendingMax), len(ms))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeScheduling times After / Timer.Reset and Handle.Cancel / Timer.Stop
// on e at whatever depth the run left its heap, 256 of each at a time so
// the depth stays put.
func probeScheduling(res *result, e *sim.Engine, rounds int) {
	const batch = 256
	rng := sim.NewRNG(1)
	nop := func() {}
	handles := make([]sim.Handle, batch)
	timers := make([]*sim.Timer, batch)
	for i := range timers {
		timers[i] = sim.NewTimer(e, nop)
	}
	var schedule, cancel time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := range handles {
			handles[i] = e.After(rng.Exp(60), nop)
			timers[i].Reset(rng.Exp(60))
		}
		t1 := time.Now()
		for i := range handles {
			handles[i].Cancel()
			timers[i].Stop()
		}
		schedule += t1.Sub(t0)
		cancel += time.Since(t1)
	}
	n := 2 * batch * rounds
	res.set("sim.schedule_ns", float64(schedule)/float64(n), n)
	res.set("sim.cancel_ns", float64(cancel)/float64(n), n)
}

// --- kernel-heartbeat ---

// heartbeatShard is written only by callbacks on the owning shard.
type heartbeatShard struct{ heartbeats, transfers uint64 }

type heartbeatRig struct {
	cfg    *config
	traced bool
	set    *sim.ShardSet
	shards []heartbeatShard
	// webAtPhase[p] counts web entities whose first beat is at second p.
	webAtPhase [int(heartbeatPeriod)]int
	windows    int // completed since set-up
	want       []heartbeatMark
	marks      []heartbeatMark
	failed     int
	problems   []string
	last       kernelPhase
	fired0     []uint64 // per shard, at the start of the last drive
	base       time.Time
	spans      []flatSpan
}

func drawFlowSize(e *sim.Engine) float64 {
	u := e.RandFloat64()
	if u > 0.9999 {
		u = 0.9999 // keep the Pareto tail heavy but finite
	}
	return flowScale / math.Pow(1-u, 1/flowAlpha)
}

// buildHeartbeat rebuilds the million-entity shape from the exported sim
// API: every entity owns one pooled Timer on the shard its ID hashes to;
// 9 in 10 beat on a whole-second phase every 120 s, 1 in 10 is a
// back-to-back Pareto-sized transfer.
func buildHeartbeat(cfg *config, traced bool) (rig, error) {
	r := &heartbeatRig{cfg: cfg, traced: traced, set: sim.NewShardSet(cfg.seed, heartbeatShards), base: time.Now()}
	r.shards = make([]heartbeatShard, r.set.K())
	if cfg.pinned() {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		r.want = exp.Heartbeat
	}
	for i := 0; i < cfg.sz.entities; i++ {
		si := r.set.ShardIndex("ent-" + strconv.Itoa(i))
		e, st := r.set.ShardAt(si), &r.shards[si]
		var tm *sim.Timer
		if i%webPerFlow == webPerFlow-1 {
			size := drawFlowSize(e)
			tm = sim.NewTimer(e, func() {
				st.transfers++
				size = drawFlowSize(e)
				tm.Reset(sim.Duration(size / flowRate))
			})
			start := sim.Time(e.RandFloat64() * float64(heartbeatPeriod))
			tm.ResetAt(start + sim.Time(size/flowRate))
			continue
		}
		tm = sim.NewTimer(e, func() {
			st.heartbeats++
			tm.Reset(heartbeatPeriod)
		})
		p := i % int(heartbeatPeriod)
		r.webAtPhase[p]++
		tm.ResetAt(sim.Time(p))
	}
	return r, nil
}

func (r *heartbeatRig) totals() (m heartbeatMark, heartbeats uint64) {
	m.Fired = r.set.Fired()
	for i := range r.shards {
		m.Transfers += r.shards[i].transfers
		heartbeats += r.shards[i].heartbeats
	}
	return m, heartbeats
}

func (r *heartbeatRig) problemf(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *heartbeatRig) drive(d time.Duration) phase {
	k := kernelPhase{}
	r.fired0 = r.fired0[:0]
	for i := 0; i < r.set.K(); i++ {
		r.fired0 = append(r.fired0, r.set.ShardAt(i).Fired())
	}
	fired0, m0 := r.set.Fired(), mallocs()
	firedSoFar := fired0
	r.failed, r.spans = 0, r.spans[:0]
	start := time.Now()
	for {
		r.windows++
		t0 := time.Now()
		r.set.RunUntil(sim.Time(heartbeatWindow) * sim.Time(r.windows))
		t1 := time.Now()
		m, _ := r.totals()
		k.unit(t1.Sub(t0), m.Fired-firedSoFar)
		firedSoFar = m.Fired
		if r.traced {
			r.spans = append(r.spans, flatSpan{"window-" + strconv.Itoa(r.windows), "sim", "window",
				int64(t0.Sub(r.base)), int64(t1.Sub(r.base))})
		}
		if skew := r.set.Skew(); skew != 0 {
			r.problemf("shard skew %v after window %d", skew, r.windows)
		}
		if p := r.set.Pending(); p > k.pendingMax {
			k.pendingMax = p
		}
		if r.windows <= expectedMarks {
			r.marks = append(r.marks, m)
			if r.windows <= len(r.want) && m != r.want[r.windows-1] {
				r.problemf("window %d: fired/transfers %+v, %s has %+v", r.windows, m, expectedFile, r.want[r.windows-1])
			}
		}
		if r.cfg.validate || time.Since(start) >= d {
			break
		}
	}
	k.elapsed = time.Since(start)
	k.fired, k.mallocs = r.set.Fired()-fired0, mallocs()-m0
	r.last = k
	return k.phase(r.failed)
}

func (r *heartbeatRig) finish(res *result) {
	res.problems = append(res.problems, r.problems...)
	if p := r.set.Pending(); p != r.cfg.sz.entities {
		res.problemf("pending-final %d, entities %d", p, r.cfg.sz.entities)
	}
	// Closed form: a web entity with phase p has beaten ⌊(T−p)/120⌋+1
	// times by simulated time T ≥ p.
	now := float64(r.set.Now())
	var want uint64
	for p, n := range r.webAtPhase {
		if now >= float64(p) {
			want += uint64(n) * uint64(math.Floor((now-float64(p))/float64(heartbeatPeriod))+1)
		}
	}
	if _, got := r.totals(); got != want {
		res.problemf("heartbeats %d, closed form %d at t=%v", got, want, r.set.Now())
	}
	var max, sum float64
	for i := range r.fired0 {
		n := float64(r.set.ShardAt(i).Fired() - r.fired0[i])
		sum += n
		if n > max {
			max = n
		}
	}
	r.last.report(res, max/(sum/float64(len(r.fired0))))
	if r.traced {
		probeScheduling(res, r.set.Anchor(), r.cfg.sz.probes)
		if !r.cfg.validate {
			if err := writeFlatTrace(r.cfg.tracePath("kernel-heartbeat"), r.spans); err != nil {
				res.problemf("writing trace: %v", err)
			}
		}
	}
}

func (r *heartbeatRig) close() {}

// --- kernel-churn ---

type churnRig struct {
	cfg      *config
	traced   bool
	e        *sim.Engine
	rng      *sim.RNG
	handles  []sim.Handle // slots [0, half): After + Handle.Cancel
	timers   []*sim.Timer // slots [half, outstanding): pooled Timer.Reset
	fired    int
	cancels  int
	chunks   int
	want     []churnMark
	marks    []churnMark
	failed   int
	problems []string
	last     kernelPhase
	base     time.Time
	spans    []flatSpan
}

const churnHalf = churnOutstanding / 2

// buildChurn arms 4096 events with exponential delays on one Share()d
// engine — the live mode, lock on every call. Each firing reschedules its
// own slot and cancels and replaces one random other.
func buildChurn(cfg *config, traced bool) (rig, error) {
	r := &churnRig{cfg: cfg, traced: traced, e: sim.NewEngine(cfg.seed), rng: sim.NewRNG(cfg.seed ^ 0x9e3779b9), base: time.Now()}
	r.e.Share()
	if cfg.pinned() {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		r.want = exp.Churn
	}
	r.handles = make([]sim.Handle, churnHalf)
	r.timers = make([]*sim.Timer, churnHalf)
	for i := range r.timers {
		slot := churnHalf + i
		r.timers[i] = sim.NewTimer(r.e, func() { r.fire(slot) })
	}
	for slot := 0; slot < churnOutstanding; slot++ {
		r.arm(slot)
	}
	return r, nil
}

// arm schedules slot's next event. The slot's previous event has fired, or
// (for a victim) has just been cancelled: cancelling a fired Handle would
// leave a tombstone that makes Pending under-count.
func (r *churnRig) arm(slot int) {
	d := r.rng.Exp(1.0)
	if slot >= churnHalf {
		r.timers[slot-churnHalf].Reset(d) // cancels a pending expiry itself
		return
	}
	r.handles[slot] = r.e.After(d, func() { r.fire(slot) })
}

func (r *churnRig) fire(slot int) {
	r.fired++
	if victim := r.rng.Intn(churnOutstanding); victim != slot {
		r.cancels++
		if victim < churnHalf {
			r.handles[victim].Cancel()
		}
		r.arm(victim)
	}
	r.arm(slot)
	if r.fired%r.cfg.sz.churnChunk == 0 {
		r.e.Halt()
	}
}

func (r *churnRig) drive(d time.Duration) phase {
	k := kernelPhase{pendingMax: churnOutstanding}
	fired0, m0 := r.e.Fired(), mallocs()
	r.failed, r.spans = 0, r.spans[:0]
	start := time.Now()
	for {
		t0 := time.Now()
		r.e.Run() // until fire() halts it at the chunk boundary
		t1 := time.Now()
		r.chunks++
		k.unit(t1.Sub(t0), uint64(r.cfg.sz.churnChunk))
		if r.traced {
			r.spans = append(r.spans, flatSpan{"chunk-" + strconv.Itoa(r.chunks), "sim", "chunk",
				int64(t0.Sub(r.base)), int64(t1.Sub(r.base))})
		}
		if p := r.e.Pending(); p != churnOutstanding {
			r.failed++
			if len(r.problems) < 8 {
				r.problems = append(r.problems, fmt.Sprintf("chunk %d: %d events pending, want %d", r.chunks, p, churnOutstanding))
			}
		}
		if r.chunks <= expectedMarks {
			m := churnMark{SimTime: float64(r.e.Now()), Cancels: r.cancels}
			r.marks = append(r.marks, m)
			if r.chunks <= len(r.want) && m != r.want[r.chunks-1] {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("chunk %d: %+v, %s has %+v", r.chunks, m, expectedFile, r.want[r.chunks-1]))
			}
		}
		if r.cfg.validate || time.Since(start) >= d {
			break
		}
	}
	k.elapsed = time.Since(start)
	k.fired, k.mallocs = r.e.Fired()-fired0, mallocs()-m0
	r.last = k
	return k.phase(r.failed)
}

func (r *churnRig) finish(res *result) {
	res.problems = append(res.problems, r.problems...)
	if got, want := int(r.e.Fired()), r.chunks*r.cfg.sz.churnChunk; got != want {
		res.problemf("fired %d, want %d chunks × %d = %d", got, r.chunks, r.cfg.sz.churnChunk, want)
	}
	r.last.report(res, 1)
	if r.traced {
		probeScheduling(res, r.e, r.cfg.sz.probes)
		if !r.cfg.validate {
			if err := writeFlatTrace(r.cfg.tracePath("kernel-churn"), r.spans); err != nil {
				res.problemf("writing trace: %v", err)
			}
		}
	}
}

func (r *churnRig) close() {}
