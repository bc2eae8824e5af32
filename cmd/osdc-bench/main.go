// Command osdc-bench runs the paper's evaluation scenarios through the
// scenario registry and prints them in the paper's format.
//
// Usage:
//
//	osdc-bench [-exp all|<name>] [-seed N] [-seeds N] [-parallel N]
//	           [-param k=v,k2=v2] [-json] [-list] [-mutexprofile out.pb.gz]
//
// With -seeds 1 (the default) each scenario runs once and prints its
// paper-style table. With -seeds N > 1 the seeds fan out over a worker
// pool (-parallel, default NumCPU) and the per-metric mean/std/min/max
// aggregates are printed instead. -param overrides a parametric scenario's
// workload shape (e.g. -exp console-load -param users=32,think-ms=5) and
// requires naming one scenario with -exp. -json emits the same results as
// JSON; -list enumerates the registered scenarios with their parameters.
// -mutexprofile captures a full mutex-contention profile of the run —
// `osdc-bench -exp console-knee -mutexprofile knee.pb.gz` answers which
// service lock saturates first at the latency knee (inspect with `go tool
// pprof knee.pb.gz`).
//
// Experiments live in internal/experiments and self-register into
// internal/scenario; adding a scenario there makes it appear here with no
// changes to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	_ "osdc/internal/experiments" // populate the scenario registry
	"osdc/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "osdc-bench: %v\n", err)
		os.Exit(1)
	}
}

// singleResult is the JSON form of one scenario × one seed.
type singleResult struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	scenario.Result
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("osdc-bench", flag.ContinueOnError)
	// Parse errors surface once, via main's error print; only an explicit
	// -h/-help gets the usage block, on stdout, so -json output stays
	// pipeable.
	fs.SetOutput(io.Discard)
	exp := fs.String("exp", "all", "scenario to run, or 'all'")
	seed := fs.Uint64("seed", 2012, "base simulation seed")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to sweep")
	parallel := fs.Int("parallel", 0, "sweep workers (0 = NumCPU)")
	asJSON := fs.Bool("json", false, "emit JSON instead of formatted tables")
	list := fs.Bool("list", false, "list registered scenarios and exit")
	params := fs.String("param", "", "comma-separated k=v overrides for a parametric scenario (requires -exp <name>)")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile of the run to this file (e.g. during -exp console-knee)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil
		}
		return err
	}

	if *mutexProfile != "" {
		// Sample every mutex contention event for the whole run — the
		// ROADMAP's "which lock saturates first at the console knee"
		// question wants the full picture, and scenario runs are short.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			runtime.SetMutexProfileFraction(0)
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "osdc-bench: mutex profile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "osdc-bench: mutex profile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, s := range scenario.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", s.Name(), s.Describe())
			if p, ok := s.(scenario.Parametric); ok {
				fmt.Fprintf(stdout, "%-20s params: %s\n", "", formatParams(p.Params()))
			}
		}
		return nil
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}

	var selected []scenario.Scenario
	if *exp == "all" {
		selected = scenario.All()
	} else {
		s, ok := scenario.Get(*exp)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have: %s)", *exp, strings.Join(scenario.Names(), ", "))
		}
		selected = []scenario.Scenario{s}
	}

	if *params != "" {
		if *exp == "all" {
			return fmt.Errorf("-param requires naming one scenario with -exp")
		}
		overrides, err := parseParams(*params)
		if err != nil {
			return err
		}
		p, ok := selected[0].(scenario.Parametric)
		if !ok {
			return fmt.Errorf("scenario %q takes no parameters", *exp)
		}
		tuned, err := p.With(overrides)
		if err != nil {
			return err
		}
		selected[0] = tuned
	}

	var jsonOut []interface{}
	for _, s := range selected {
		if *seeds == 1 {
			res, err := s.Run(*seed)
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name(), err)
			}
			if *asJSON {
				jsonOut = append(jsonOut, singleResult{Scenario: s.Name(), Seed: *seed, Result: res})
				continue
			}
			fmt.Fprintf(stdout, "══ %s ══\n", s.Describe())
			fmt.Fprint(stdout, res.Table)
			fmt.Fprintf(stdout, "\nmetrics (seed %d):\n%s\n", *seed, res.MetricsTable())
			continue
		}
		sweep, err := scenario.Sweep(s, scenario.Seeds(*seed, *seeds), *parallel)
		if err != nil {
			return err
		}
		if *asJSON {
			jsonOut = append(jsonOut, sweep)
			continue
		}
		fmt.Fprintf(stdout, "══ %s ══\n", s.Describe())
		fmt.Fprint(stdout, sweep.Format())
		fmt.Fprintln(stdout)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}

// parseParams turns "users=32,think-ms=5" into a parameter map.
func parseParams(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad -param entry %q, want k=v", pair)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -param value in %q: %v", pair, err)
		}
		out[k] = f
	}
	return out, nil
}

// formatParams renders a parameter map as sorted k=v pairs.
func formatParams(p map[string]float64) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, p[k])
	}
	return strings.Join(parts, " ")
}
