// Package repro reproduces "High-Bandwidth Packet Switching on the Raw
// General-Purpose Architecture" (Gleb A. Chuvpilo, MIT, 2002 / ICPP 2003)
// as a Go library: a cycle-level simulator of the Raw tiled processor, the
// Rotating Crossbar router built on its static networks, the baselines the
// paper compares against, and one experiment runner (cmd/reproduce) that
// regenerates every table and figure of the evaluation. The package's test
// files hold the benchmark legs scripts/gates runs and the artifact golden
// (checkpoint files and fabric output across packages). See README.md for a
// tour, DESIGN.md for the system inventory, and EXPERIMENTS.md for
// paper-vs-measured results. The public API lives in internal/core.
package repro
