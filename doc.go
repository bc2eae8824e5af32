// Package osdc is a full reproduction of "The Design of a Community
// Science Cloud: The Open Science Data Cloud Perspective" (Grossman et
// al., SC Companion 2012) as a Go library.
//
// The public surface lives in the command-line tools (cmd/) and the
// benchmark harness at this repository root, which regenerates every
// table and figure in the paper through the scenario registry
// (internal/scenario): cmd/osdc-bench -list enumerates the experiments,
// -seeds N fans a sweep over a worker pool. The
// implementation packages are under internal/; see DESIGN.md for the
// system inventory and scenario-subsystem architecture and EXPERIMENTS.md
// for paper-vs-measured results.
package osdc
