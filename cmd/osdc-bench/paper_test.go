package main

// The paper's claims as data. Each ledger row quotes the paper (section
// and words), names the scenario metric that reproduces it, and bounds
// that metric by a constant or by another key of the same run.
// TestPaperLedger holds every row at the committed golden and at 16
// seeds, and renders EXPERIMENTS.md's paper-vs-measured block. A new
// paper number gets a row here, not an assertion in some package's tests.
//
// This file sorts after main_test.go, so the ledger runs after the golden
// test: a -update that rewrites a golden past a claim fails in that run.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"osdc/internal/experiments"
	"osdc/internal/scenario"
)

// claim is one ledger row. cmp is "<", ">", ">=" or "≈" (|key − ref| ≤
// tol); the reference is the key than of the same run, or value when than
// is "". misses is how many of the sweep's seeds may break the row, each
// a measured shortfall CHANGES.md names.
type claim struct {
	section, quote, scenario, key, cmp, than string
	value, tol                               float64
	misses                                   int
}

// sweepSeeds is how many seeds, from the golden's, each row is held at.
const sweepSeeds = 16

// ledger returns every claim. Table 3's quoted values are
// experiments.PaperTable3's, the rows the table3 scenario prints.
func ledger() []claim {
	rows := []claim{
		{section: "Abstract", quote: "more than 2000 cores", scenario: "table2", key: "cores", cmp: ">", value: 2000},
		{section: "Abstract", quote: "and 2 PB of storage", scenario: "table2", key: "disk-TB", cmp: ">=", value: 2048},
		{section: "Table 2", quote: "four resources", scenario: "table2", key: "resources", cmp: "≈", value: 4},
		{section: "Table 2", quote: "1248 + 928 + 120 cores", scenario: "table2", key: "cores", cmp: "≈", value: 2296},
		{section: "Table 2", quote: "1.2 PB + 1 PB + 1 PB + 100 TB", scenario: "table2", key: "disk-TB", cmp: "≈", value: 3348},
		{section: "Table 1", quote: "lots of small web flows; large science flows", scenario: "table1",
			key: "web-median-bytes", cmp: "<", than: "science-median-bytes"},
		{section: "Table 1", quote: "large in+out data flows", scenario: "table1", key: "science-elephant-share", cmp: ">=", value: 0.9},
		{section: "Table 1", quote: "science flows go in and out", scenario: "table1",
			key: "web-incoming-share", cmp: "<", than: "science-incoming-share"},
	}
	// Each row's mbit/s tolerance is the tighter of 15 % of the paper's
	// value and the band udr's TestTable3AbsoluteBands holds it to
	// (UDR plain 700–780, rsync plain 380–420, UDR blowfish 370–400, rsync
	// blowfish 255–290, rsync 3DES 255–295), at both dataset sizes.
	mbitTol := []float64{28, 15, 4, 9, 10}
	for i, p := range experiments.PaperTable3() {
		cfg := p.Config.String()
		rows = append(rows,
			claim{section: "Table 3", quote: fmt.Sprintf("%s, 108 GB: %g mbit/s", cfg, p.Mbit108), scenario: "table3",
				key: "mbit-108GB[" + cfg + "]", cmp: "≈", value: p.Mbit108, tol: mbitTol[i]},
			claim{section: "Table 3", quote: fmt.Sprintf("%s, 1.1 TB: %g mbit/s", cfg, p.Mbit1T), scenario: "table3",
				key: "mbit-1.1TB[" + cfg + "]", cmp: "≈", value: p.Mbit1T, tol: mbitTol[i]},
			claim{section: "Table 3", quote: fmt.Sprintf("%s, 108 GB: LLR %g", cfg, p.LLR108), scenario: "table3",
				key: "llr-108GB[" + cfg + "]", cmp: "≈", value: p.LLR108, tol: 0.06})
	}
	return append(rows,
		claim{section: "§4.2", quote: "Matsu detects floods", scenario: "fig2", key: "flood-tiles", cmp: ">"},
		claim{section: "§4.2", quote: "Matsu detects floods", scenario: "fig2", key: "flood-km2", cmp: ">"},
		claim{section: "§4.2", quote: "on a Hadoop cluster", scenario: "fig2", key: "job-seconds", cmp: ">"},
		claim{section: "§4.2", quote: "on a Hadoop cluster", scenario: "fig2", key: "map-locality", cmp: ">=", value: 0.5},
		claim{section: "Figure 3", quote: "five clusters", scenario: "fig3", key: "clusters", cmp: "≈", value: 5},
		claim{section: "Figure 3", quote: "three fully operational behind Tukey", scenario: "fig3", key: "full-tukey", cmp: "≈", value: 3},
		claim{section: "§7.3", quote: "the first rack took over a week", scenario: "provision", key: "manual-days", cmp: ">", value: 7},
		claim{section: "§7.3", quote: "much less than a day", scenario: "provision", key: "automated-hours", cmp: "<", value: 24},
		claim{section: "§7.3", quote: "over a week → much less than a day", scenario: "provision", key: "speedup", cmp: ">=", value: 7},
		claim{section: "§9.1", quote: "at approximately 80% or greater", scenario: "cost", key: "crossover-utilization", cmp: "≈", value: 0.8, tol: 0.08},
	)
}

// holds reports whether c holds in one run's metrics. A key the run lacks
// is an error, so a renamed metric cannot drop a claim.
func (c claim) holds(m map[string]float64) (bool, error) {
	got, ok := m[c.key]
	ref, refOK := c.value, true
	if c.than != "" {
		ref, refOK = m[c.than]
	}
	if !ok || !refOK {
		return false, fmt.Errorf("%s has no metric %q or %q", c.scenario, c.key, c.than)
	}
	switch c.cmp {
	case "<":
		return got < ref, nil
	case ">":
		return got > ref, nil
	case ">=":
		return got >= ref, nil
	case "≈":
		return math.Abs(got-ref) <= c.tol, nil
	}
	return false, fmt.Errorf("unknown comparison %q", c.cmp)
}

// check judges c at the golden seed and at each of the sweep's runs, and
// returns how many runs it held at.
func (c claim) check(golden map[string]float64, runs []map[string]float64) (int, error) {
	ok, err := c.holds(golden)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%s: %s is %v at the golden seed, want %s", c.quote, c.key, golden[c.key], c.bound())
	}
	held := 0
	for _, m := range runs {
		ok, err := c.holds(m)
		if err != nil {
			return held, err
		}
		if ok {
			held++
		}
	}
	if held < len(runs)-c.misses {
		return held, fmt.Errorf("%s: %s %s holds at %d of %d seeds, pinned at %d",
			c.quote, c.key, c.bound(), held, len(runs), len(runs)-c.misses)
	}
	return held, nil
}

// bound renders the comparison for EXPERIMENTS.md.
func (c claim) bound() string {
	switch {
	case c.than != "":
		return c.cmp + " `" + c.than + "`"
	case c.cmp == "≈" && c.tol == 0:
		return "= " + number(c.value)
	case c.cmp == "≈":
		return number(c.value) + " ± " + number(c.tol)
	}
	return strings.Replace(c.cmp, ">=", "≥", 1) + " " + number(c.value)
}

func number(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

const (
	ledgerBegin = "<!-- ledger: TestPaperLedger renders this block; go test ./cmd/osdc-bench -update rewrites it -->\n"
	ledgerEnd   = "<!-- /ledger -->\n"
)

// TestPaperLedger checks every claim against its scenario's golden and at
// each of sweepSeeds seeds, and keeps EXPERIMENTS.md's block in step.
func TestPaperLedger(t *testing.T) {
	golden := map[string]map[string]float64{}
	sweeps := map[string][]map[string]float64{}
	var b strings.Builder
	b.WriteString(ledgerBegin + "| § | The paper | Scenario | Metric | Bound | Golden | Seeds held |\n|---|---|---|---|---|---|---|\n")
	for _, c := range ledger() {
		if _, done := sweeps[c.scenario]; !done {
			raw, err := os.ReadFile(filepath.Join("testdata", c.scenario+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var recorded []singleResult
			if err := json.Unmarshal(raw, &recorded); err != nil || len(recorded) != 1 {
				t.Fatalf("%s golden: %d results, %v", c.scenario, len(recorded), err)
			}
			golden[c.scenario] = recorded[0].Metrics
			s, ok := scenario.Get(c.scenario)
			if !ok {
				t.Fatalf("claim %q names unregistered scenario %s", c.quote, c.scenario)
			}
			// The sweep keeps only aggregates, so a recording wrapper keeps
			// each seed's metrics.
			var mu sync.Mutex
			runs := map[uint64]map[string]float64{}
			recorder := scenario.New(c.scenario, "", func(seed uint64) (scenario.Result, error) {
				res, err := s.Run(seed)
				mu.Lock()
				defer mu.Unlock()
				runs[seed] = res.Metrics
				return res, err
			})
			seeds := scenario.Seeds(recorded[0].Seed, sweepSeeds)
			if _, err := scenario.Sweep(recorder, seeds, 0); err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				sweeps[c.scenario] = append(sweeps[c.scenario], runs[seed])
			}
		}
		held, err := c.check(golden[c.scenario], sweeps[c.scenario])
		if err != nil {
			t.Errorf("%s %s: %v", c.section, c.scenario, err)
		}
		fmt.Fprintf(&b, "| %s | %s | `%s` | `%s` | %s | %s | %d/%d |\n",
			c.section, c.quote, c.scenario, c.key, c.bound(), number(golden[c.scenario][c.key]), held, sweepSeeds)
	}
	b.WriteString(ledgerEnd)

	const doc = "../../EXPERIMENTS.md"
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	i, j := strings.Index(text, ledgerBegin), strings.Index(text, ledgerEnd)
	switch {
	case i < 0 || j < i:
		t.Fatalf("%s has no ledger block", doc)
	case text[i:j+len(ledgerEnd)] == b.String():
	case *update:
		if err := os.WriteFile(doc, []byte(text[:i]+b.String()+text[j+len(ledgerEnd):]), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Errorf("%s's ledger block is stale (go test ./cmd/osdc-bench -update rewrites it); want\n%s", doc, b.String())
	}
}

// TestLedgerEvaluator holds claim.check to its four ways of failing and
// its key-against-key pass, over an in-memory golden.
func TestLedgerEvaluator(t *testing.T) {
	golden := map[string]float64{"a": 10, "b": 20}
	runs := make([]map[string]float64, sweepSeeds)
	for i := range runs {
		runs[i] = golden
	}
	runs[3], runs[11] = map[string]float64{"a": 9, "b": 20}, map[string]float64{"a": 9, "b": 20}
	for _, tc := range []struct {
		name    string
		c       claim
		wantErr string // "" when the row holds
	}{
		{"bound violated", claim{key: "a", cmp: ">", value: 15}, "golden seed"},
		{"key missing", claim{key: "renamed", cmp: "<", value: 1}, "no metric"},
		{"fraction below pin", claim{key: "a", cmp: ">=", value: 10, misses: 1}, "14 of 16 seeds"},
		{"key against key violated", claim{key: "b", cmp: "<", than: "a"}, "golden seed"},
		{"key against key holds", claim{key: "a", cmp: "<", than: "b"}, ""},
	} {
		_, err := tc.c.check(golden, runs)
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: check = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
