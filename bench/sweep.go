package main

// sim-sweep: the paper-reproduction path operators run. scenario.Sweep
// over the five table scenarios, C workers, a fixed population of seeds
// visited again and again; every scenario's recorded golden seed is run
// first and compared key for key.
//
// The population is fixed because a seed's cost is its input: one seed's
// mixed-workload run takes 35 ms and another's 510 ms, so the 95th
// percentile of whichever seventy seeds a run happened to draw moved by a
// quarter between runs of the same code. -seed picks the block the sweep
// starts on.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"osdc/internal/experiments" // also populates the scenario registry
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/transport"
	"osdc/internal/udt"
)

// runKey names one scenario run's input.
type runKey struct {
	scenario int
	seed     uint64
}

// runSample is one scenario run as the timing decorator saw it.
type runSample struct {
	runKey
	start, end time.Time
}

// timedScenario decorates a scenario.Scenario — the seam Sweep exposes —
// with a per-run clock and the repeat oracle: a run is a function of its
// seed, so every later visit must return the first visit's metrics.
type timedScenario struct {
	scenario.Scenario
	idx int
	rig *sweepRig
}

func (t timedScenario) Run(seed uint64) (scenario.Result, error) {
	start := time.Now()
	res, err := t.Scenario.Run(seed)
	end := time.Now()
	key := runKey{t.idx, seed}
	t.rig.mu.Lock()
	t.rig.runs = append(t.rig.runs, runSample{key, start, end})
	if first, seen := t.rig.first[key]; !seen {
		t.rig.first[key] = res.Metrics
	} else if err == nil && !sameMetrics(res.Metrics, first) {
		t.rig.drifted = append(t.rig.drifted, key)
	}
	t.rig.mu.Unlock()
	return res, err
}

type sweepRig struct {
	cfg       *config
	traced    bool
	scenarios []timedScenario
	nextBlock int // of the population, the next round's
	base      time.Time

	mu      sync.Mutex
	runs    []runSample                   // the last drive's
	first   map[runKey]map[string]float64 // each input's first result
	drifted []runKey                      // later visits that differed from it

	// Golden-seed verdict, taken at set-up.
	goldenRuns, goldenMisses int
	problems                 []string
	sweepWall                time.Duration // Σ wall time inside Sweep, last drive
}

// goldenMetrics reads cmd/osdc-bench's recorded result for one scenario.
func goldenMetrics(name string) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, name+".json"))
	if err != nil {
		return nil, err
	}
	var recorded []struct {
		Seed    uint64             `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		return nil, fmt.Errorf("%s golden: %w", name, err)
	}
	if len(recorded) != 1 || recorded[0].Seed != goldenSeed {
		return nil, fmt.Errorf("%s golden: want one result at seed %d", name, goldenSeed)
	}
	return recorded[0].Metrics, nil
}

// buildSweep resolves the scenarios and runs each at its golden seed.
func buildSweep(cfg *config, traced bool) (rig, error) {
	r := &sweepRig{cfg: cfg, traced: traced, base: time.Now(), first: map[runKey]map[string]float64{},
		nextBlock: int(cfg.seed % uint64(cfg.sz.sweepBlocks))}
	for i, name := range sweepScenarios {
		s, ok := scenario.Get(name)
		if !ok {
			return nil, fmt.Errorf("scenario %s is not registered", name)
		}
		want, err := goldenMetrics(name)
		if err != nil {
			return nil, err
		}
		got, err := s.Run(goldenSeed)
		r.goldenRuns++
		switch {
		case err != nil:
			r.goldenMisses++
			r.problems = append(r.problems, fmt.Sprintf("%s at golden seed: %v", name, err))
		case !sameMetrics(got.Metrics, want):
			r.goldenMisses++
			r.problems = append(r.problems, fmt.Sprintf("%s at seed %d differs from %s/%s.json", name, goldenSeed, goldenDir, name))
		}
		r.scenarios = append(r.scenarios, timedScenario{Scenario: s, idx: i, rig: r})
	}
	return r, nil
}

func sameMetrics(got, want map[string]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return false
		}
	}
	return true
}

// drive sweeps one block of the population per round, scenario by scenario,
// until d has passed, going round the population as often as that takes.
func (r *sweepRig) drive(d time.Duration) phase {
	r.runs, r.sweepWall = r.runs[:0], 0
	out := phase{}
	var roundRate []float64
	visits := map[uint64][]float64{} // per seed, each visit's five tables in ns
	start := time.Now()
	for {
		seeds := scenario.Seeds(defaultSeed+uint64(r.nextBlock*r.cfg.sz.sweepSeeds), r.cfg.sz.sweepSeeds)
		r.nextBlock = (r.nextBlock + 1) % r.cfg.sz.sweepBlocks
		round, firstRun, drifted := time.Now(), len(r.runs), len(r.drifted)
		for _, s := range r.scenarios {
			t0 := time.Now()
			_, err := scenario.Sweep(s, seeds, r.cfg.clients)
			r.sweepWall += time.Since(t0)
			out.attempted += len(seeds)
			if err != nil {
				out.failed += len(seeds)
				r.problems = append(r.problems, err.Error())
			}
		}
		roundRate = append(roundRate, float64(len(seeds)*len(r.scenarios))/time.Since(round).Seconds())
		for _, k := range r.drifted[drifted:] {
			out.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s at seed %d: a repeat visit returned other metrics than the first",
				sweepScenarios[k.scenario], k.seed))
		}
		// What a caller waits for: one seed's five tables.
		tables := map[uint64]float64{}
		for _, run := range r.runs[firstRun:] {
			tables[run.seed] += float64(run.end.Sub(run.start))
		}
		for seed, ns := range tables {
			visits[seed] = append(visits[seed], ns)
		}
		if r.cfg.validate || time.Since(start) >= d {
			break
		}
	}
	// A seed's latency is its fastest visit. The oracle holds every visit
	// to the same result, so visits do the same work and differ only by
	// what the shared host took from them. A run gives a seed three or
	// four visits, and a neighbour's burst covers a block's whole round, so
	// their median moves with the bursts; the fastest needs one clean visit.
	for _, ns := range visits {
		out.latencyNs = append(out.latencyNs, int64(slices.Min(ns)))
	}
	out.ops = len(r.runs)
	out.opsPerS = median(roundRate)
	out.allocOps = float64(out.ops)
	return out
}

func (r *sweepRig) finish(res *result) {
	res.attempted += r.goldenRuns
	res.failed += r.goldenMisses
	res.problems = append(res.problems, r.problems...)

	perScenario := make([][]float64, len(sweepScenarios))
	var runTotal time.Duration
	spans := make([]flatSpan, 0, len(r.runs))
	for _, run := range r.runs {
		d := run.end.Sub(run.start)
		runTotal += d
		perScenario[run.scenario] = append(perScenario[run.scenario], float64(d)/1e6)
		spans = append(spans, flatSpan{sweepScenarios[run.scenario] + "-" + strconv.FormatUint(run.seed, 10),
			"scenario", sweepScenarios[run.scenario], int64(run.start.Sub(r.base)), int64(run.end.Sub(r.base))})
	}
	for i, name := range sweepScenarios {
		res.set("scenario."+name+"_ms_p50", median(perScenario[i]), len(perScenario[i]))
	}
	if runTotal > 0 {
		workers := r.cfg.clients
		if workers > r.cfg.sz.sweepSeeds {
			workers = r.cfg.sz.sweepSeeds
		}
		busy := float64(r.sweepWall) * float64(workers)
		res.set("scenario.sweep_overhead_pct", 100*(busy-float64(runTotal))/float64(runTotal), len(r.runs))
	}
	if !r.traced {
		return
	}
	// transport has no seam in this path; time it directly.
	path := experiments.ChicagoLVOCPath(r.cfg.seed)
	rng := sim.NewRNG(r.cfg.seed)
	single := timeCalls(5, func(int) {
		transport.Simulate(rng, path, udt.NewRateControl(path), 108<<30, transport.Caps{})
	})
	res.set("transport.simulate_ms", percentile(single, 50)/1e3, len(single))
	shared := timeCalls(5, func(int) {
		ctrls := make([]transport.Controller, 4)
		sizes := make([]int64, 4)
		for i := range ctrls {
			ctrls[i], sizes[i] = udt.NewRateControl(path), 4<<30
		}
		transport.SimulateShared(rng, path, ctrls, sizes, transport.Caps{})
	})
	res.set("transport.simulate_shared4_ms", percentile(shared, 50)/1e3, len(shared))
	if !r.cfg.validate {
		if err := writeFlatTrace(r.cfg.tracePath("sim-sweep"), spans); err != nil {
			res.problemf("writing trace: %v", err)
		}
	}
}

func (r *sweepRig) close() {}
