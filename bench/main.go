// Command bench is this repository's benchmark: six named workloads over
// the console, kernel and sweep paths, measured end to end with every
// wrapper absent and, in a separate traced run, layer by layer with spans
// taken at the interface seams the code already exposes. See README.md.
//
// Run it from this directory (it is a module of its own):
//
//	go run .                       every workload, end-to-end metrics
//	go run . -trace 1              plus the traced run and per-layer metrics
//	go run . -workload console-grid -seconds 10 -seed 7
//	go run . -aa                   two sets back to back: the noise floor
//	go run . -validate-only        build every rig, run the oracles, time nothing
//
// A single-workload run ends with one JSON object on the last line of
// standard output, in the shape ../BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// stderr takes progress notes and oracle detail; tests silence it.
var stderr io.Writer = os.Stderr

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// gitCommit names the commit in the header. A built binary carries it; under
// `go run` it is read from the repository's .git, one level up — without
// starting git, which would search the directories above a checkout that
// is not a repository.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	const dir = "../.git"
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown" // not a git checkout
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		rev = ""
		if raw, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
			rev = strings.TrimSpace(string(raw))
		} else if packed, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					rev = hash
				}
			}
		}
	}
	if len(rev) < 7 {
		return "unknown"
	}
	return rev[:7]
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and end with the one-line result object (default: all six)")
	seed := fs.Uint64("seed", defaultSeed, "seeds user names, read order and kernel RNGs, and picks the block of seeds sim-sweep starts on")
	seconds := fs.Float64("seconds", 15, "length of each measured phase")
	trace := fs.Int("trace", 0, "1: also run each workload traced, write out/trace-<workload>.jsonl, report per-layer metrics")
	asJSON := fs.Bool("json", false, "print one JSON object per workload instead of the tables")
	validate := fs.Bool("validate-only", false, "build every rig small, run one unit of work and the oracle, time nothing")
	aa := fs.Bool("aa", false, "run two full sets of the same binary and compare them against the bounds")
	writeExp := fs.Bool("write-expected", false, "rewrite "+expectedFile+" from the kernel workloads at the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: unexpected argument, -seconds must be positive and -trace 0 or 1")
		return 2
	}

	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4 // more generators than this box has cores would measure the Go scheduler
	}
	cfg := &config{seed: *seed, seconds: *seconds, clients: clients, sz: measuredSizes, outDir: "out"}
	if *validate {
		cfg.validate, cfg.sz = true, validateSizes
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	h := header{
		Seed: cfg.seed, Seconds: cfg.seconds, Clients: clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH, Commit: gitCommit(),
		Transport: "one process; rig and generator share it over the loopback interface (no real link is measured); " +
			"closed loop, zero think time, one keep-alive connection per client",
	}

	switch {
	case *writeExp:
		return writeExpected(cfg)
	case *aa:
		if !*asJSON {
			h.print(stdout)
		}
		return runAA(cfg, selected, stdout)
	}

	if !*asJSON {
		h.print(stdout)
	}
	code := 0
	for _, w := range selected {
		measure := runEndToEnd
		if *trace == 1 || cfg.validate {
			measure = runPerLayer // validate covers the wrappers too
		}
		res, err := measure(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
		if *asJSON {
			line, err := richLine(h, w, res)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout, line)
		} else {
			printResult(stdout, w, res)
		}
		if *name != "" && !cfg.validate {
			line, err := contractLine(res, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return code
}

// runAA measures every selected workload twice with the same binary and
// prints, per workload × end-to-end metric, both values, their relative
// difference and the bound. This box's result is the noise floor.
func runAA(cfg *config, selected []workload, stdout io.Writer) int {
	sets := [2]map[string]*result{{}, {}}
	code := 0
	for i := range sets {
		for _, w := range selected {
			fmt.Fprintf(stderr, "set %c: %s\n", 'A'+i, w.name)
			res, err := runEndToEnd(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if !res.correct() {
				fmt.Fprintf(stderr, "bench: %s: oracle failed: %v\n", w.name, res.problems)
				code = 1
			}
			sets[i][w.name] = res
		}
	}
	fmt.Fprintf(stdout, "\n%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "|B-A|/A", "bound")
	for _, w := range selected {
		for _, d := range endToEnd {
			a, b := sets[0][w.name].metrics[d.name].value, sets[1][w.name].metrics[d.name].value
			diff := 0.0
			if a != 0 {
				diff = (b - a) / a
				if diff < 0 {
					diff = -diff
				}
			}
			verdict := ""
			if diff > d.bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}

// writeExpected records the kernel workloads' first marks at the default
// seed.
func writeExpected(cfg *config) int {
	cfg.seed, cfg.recording = defaultSeed, true
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	hb, err := buildHeartbeat(cfg, false)
	if err != nil {
		return fail(err)
	}
	ch, err := buildChurn(cfg, false)
	if err != nil {
		return fail(err)
	}
	h, c := hb.(*heartbeatRig), ch.(*churnRig)
	for len(h.marks) < expectedMarks {
		h.drive(0) // one window
	}
	for len(c.marks) < expectedMarks {
		c.drive(0) // one chunk
	}
	raw, err := json.MarshalIndent(expected{Heartbeat: h.marks, Churn: c.marks}, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(expectedFile, append(raw, '\n'), 0o644); err != nil {
		return fail(err)
	}
	return 0
}
